//! ROMIO-style two-phase collective read.
//!
//! Phase 1 (read): aggregator ranks read contiguous windows of their
//! file domains into collective buffers. Phase 2 (exchange): each
//! aggregator scatters the bytes each rank asked for — as ROMIO does,
//! one message per (window, destination) carrying every piece of that
//! window the destination asked for ([`ScatterPlan::sends_in`]), not one
//! per piece.
//!
//! The planner is pure and cheap — it needs only the *aggregate* extent
//! list, which coalesces to a handful of runs even for a 4480³ variable,
//! so full paper-scale access patterns can be computed on a laptop. The
//! placed runs behind the exchange are radix-sorted by
//! `(file_offset, rank)`, with no comparison ([`ScatterPlan::build`]).
//!
//! The in-process read has one window loop and two sinks. The accesses
//! are grouped by aggregator and the groups run concurrently, as ROMIO's
//! aggregators read their own file domains: each reads its windows with
//! positional reads in 256 KiB stripes into one reused buffer, and hands
//! every piece∩stripe to a sink with its bytes: [`two_phase_execute`]
//! copies them into per-rank byte buffers (the byte-level oracle),
//! [`two_phase_decode`] decodes them straight into per-rank `f32`
//! outputs. Each group writes only the output ranges split off for it.
//! A window that begins partway into an element (a file domain
//! boundary, or a `cb_buffer_size`, that is not a multiple of 4) splits
//! that element between two pieces; the decoding sink holds the ≤ 3
//! bytes of each side until the element is whole.
//! The message-passing executor in `pvr-core` walks the same
//! [`ScatterPlan`] with its own window loop, because it reads under a
//! fault audit and sends bytes over links.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;

use pvr_formats::extent::{clip, merge_sorted, total_bytes, union_bytes, Extent};
use pvr_formats::layout::PlacedRun;
use pvr_formats::{Endian, ELEM_SIZE};
use rayon::prelude::*;

/// MPI-IO hints controlling the collective read — the paper's tuning
/// knobs ("adjusting such parameters as internal buffer sizes and number
/// of I/O aggregators").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveHints {
    /// `cb_buffer_size`: bytes of the collective buffer each aggregator
    /// reads per window. ROMIO's default is 16 MiB; the paper's tuned
    /// runs set it to the netCDF record size.
    pub cb_buffer_size: u64,
    /// `cb_nodes`: number of aggregator ranks. `None` selects the
    /// BG/P-style default chosen by the caller (typically a few per
    /// pset).
    pub cb_nodes: Option<usize>,
}

impl Default for CollectiveHints {
    fn default() -> Self {
        CollectiveHints {
            cb_buffer_size: 16 << 20,
            cb_nodes: None,
        }
    }
}

impl CollectiveHints {
    /// The paper's tuned configuration: collective buffer matched to the
    /// netCDF record size.
    pub fn tuned(record_bytes: u64) -> Self {
        CollectiveHints {
            cb_buffer_size: record_bytes,
            cb_nodes: None,
        }
    }
}

/// One physical read access performed by an aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Index of the aggregator (0..num_aggregators).
    pub aggregator: usize,
    /// Byte range read.
    pub extent: Extent,
}

/// The complete plan of a collective read: every physical access plus
/// summary statistics.
#[derive(Debug, Clone)]
pub struct IoPlan {
    pub accesses: Vec<Access>,
    /// Bytes the application asked for.
    pub useful_bytes: u64,
    /// Bytes physically read (sum over accesses; re-reads counted).
    pub physical_bytes: u64,
    /// Unique file bytes touched (union of accesses).
    pub unique_bytes: u64,
    pub num_aggregators: usize,
    pub cb_buffer_size: u64,
}

impl IoPlan {
    /// The paper's data density: useful bytes / physically read bytes.
    pub fn data_density(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.physical_bytes as f64
        }
    }

    pub fn mean_access_bytes(&self) -> f64 {
        if self.accesses.is_empty() {
            0.0
        } else {
            self.physical_bytes as f64 / self.accesses.len() as f64
        }
    }
}

/// Partition the aggregate request span into contiguous per-aggregator
/// file domains, ROMIO-style (equal spans of `[start, end)`).
pub fn file_domains(aggregate: &[Extent], num_aggregators: usize) -> Vec<Extent> {
    assert!(num_aggregators > 0);
    if aggregate.is_empty() {
        return vec![Extent::new(0, 0); num_aggregators];
    }
    let start = aggregate[0].offset;
    let end = aggregate.last().unwrap().end();
    let span = end - start;
    (0..num_aggregators as u64)
        .map(|j| {
            let lo = start + span * j / num_aggregators as u64;
            let hi = start + span * (j + 1) / num_aggregators as u64;
            Extent::new(lo, hi - lo)
        })
        .collect()
}

/// Compute the physical access plan for a collective read of the given
/// aggregate extents (sorted, disjoint — as produced by
/// `FileLayout::extents`).
///
/// Each aggregator walks its domain from the first to the last needed
/// byte in `cb_buffer_size` steps and reads **the full window** whenever
/// any needed byte falls inside it — the behaviour of ROMIO's
/// `read_and_exch` loop, and the source of the untuned-netCDF
/// over-read.
///
/// ```
/// use pvr_formats::Extent;
/// use pvr_pfs::twophase::{two_phase_plan, CollectiveHints};
///
/// // One variable's records: 1 MB runs every 5 MB (4 variables of gap).
/// let runs: Vec<Extent> =
///     (0..8).map(|z| Extent::new(z * 5_000_000, 1_000_000)).collect();
///
/// // A 16 MiB collective buffer swallows the gaps (the paper's
/// // untuned pathology)...
/// let untuned = two_phase_plan(&runs, 4, &CollectiveHints::default());
/// assert!(untuned.data_density() < 0.35);
///
/// // ...while a record-sized buffer reads mostly useful bytes.
/// let tuned = two_phase_plan(&runs, 4, &CollectiveHints::tuned(1_000_000));
/// assert!(tuned.data_density() > 0.8);
/// ```
pub fn two_phase_plan(
    aggregate: &[Extent],
    num_aggregators: usize,
    hints: &CollectiveHints,
) -> IoPlan {
    let cb = hints.cb_buffer_size.max(1);
    let useful = total_bytes(aggregate);
    let mut accesses = Vec::new();

    for (j, dom) in file_domains(aggregate, num_aggregators).iter().enumerate() {
        if dom.is_empty() {
            continue;
        }
        let needed = clip(aggregate, *dom);
        if needed.is_empty() {
            continue;
        }
        let st = needed[0].offset;
        let end = needed.last().unwrap().end();
        let mut pos = st;
        let mut ni = 0usize; // index of first needed extent not fully before pos
        while pos < end {
            let size = cb.min(end - pos);
            let window = Extent::new(pos, size);
            // Does any needed byte fall in this window?
            while ni < needed.len() && needed[ni].end() <= window.offset {
                ni += 1;
            }
            let flagged = ni < needed.len() && needed[ni].offset < window.end();
            if flagged {
                accesses.push(Access {
                    aggregator: j,
                    extent: window,
                });
            }
            pos += size;
        }
    }

    let physical: u64 = accesses.iter().map(|a| a.extent.len).sum();
    let unique = union_bytes(&accesses.iter().map(|a| a.extent).collect::<Vec<_>>());
    IoPlan {
        accesses,
        useful_bytes: useful,
        physical_bytes: physical,
        unique_bytes: unique,
        num_aggregators,
        cb_buffer_size: cb,
    }
}

/// One rank's read request: the placed runs of its subvolume (from
/// `FileLayout::placed_runs`) and the element count of its output
/// buffer. The runs fill disjoint ranges of the output.
#[derive(Debug, Clone, Default)]
pub struct RankRequest {
    pub runs: Vec<PlacedRun>,
    pub out_elems: usize,
}

impl RankRequest {
    pub fn useful_bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.elems as u64 * ELEM_SIZE).sum()
    }
}

/// One window∩run overlap of the exchange phase: the bytes aggregator
/// `j` hands to `rank` out of one window read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// Destination rank.
    pub rank: usize,
    /// Byte offset inside the destination rank's output buffer.
    pub out_byte: usize,
    /// Byte range inside the window's buffer.
    pub src_lo: usize,
    pub src_hi: usize,
    /// Absolute file byte range of the piece.
    pub file_lo: u64,
    pub file_hi: u64,
}

impl Piece {
    pub fn len(&self) -> usize {
        self.src_hi - self.src_lo
    }

    pub fn is_empty(&self) -> bool {
        self.src_hi == self.src_lo
    }
}

/// One placed run as the scatter plan keeps it: 24 bytes, where a
/// `(u64, usize, usize, usize)` tuple took 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScatterRun {
    pub file_offset: u64,
    /// Byte offset of the run in its rank's output buffer.
    pub out_byte: usize,
    /// Elements of the run (fewer than 2^32: `sorted_runs` checks).
    pub elems: u32,
    /// The rank whose output the run fills.
    pub rank: u32,
}

impl ScatterRun {
    /// Bytes of the run.
    pub fn bytes(&self) -> u64 {
        u64::from(self.elems) * ELEM_SIZE
    }

    /// The file byte one past the run.
    fn end(&self) -> u64 {
        self.file_offset + self.bytes()
    }
}

/// Bits of the file offset one pass of [`radix_sort_by_offset`] sorts.
const DIGIT_BITS: u32 = 11;

/// Every placed run of every request, sorted by `(file_offset, rank)`.
fn sorted_runs(requests: &[RankRequest]) -> Vec<ScatterRun> {
    let mut runs = Vec::with_capacity(requests.iter().map(|rq| rq.runs.len()).sum());
    for (rank, rq) in requests.iter().enumerate() {
        let rank = u32::try_from(rank).expect("fewer than 2^32 ranks");
        for r in &rq.runs {
            runs.push(ScatterRun {
                file_offset: r.file_offset,
                out_byte: r.out_start * ELEM_SIZE as usize,
                elems: u32::try_from(r.elems).expect("a run of fewer than 2^32 elements"),
                rank,
            });
        }
    }
    radix_sort_by_offset(&mut runs);
    runs
}

/// LSD radix sort of `runs` by file offset, [`DIGIT_BITS`] a pass, as
/// many passes as the largest offset has digits. Every pass is stable
/// and [`sorted_runs`] pushes the runs rank by rank, so equal offsets —
/// only the ghost runs of different ranks overlap — come out in rank
/// order: the order is `(file_offset, rank)`, with no comparison. A
/// pass whose digit is the same for every run would move nothing and is
/// skipped.
fn radix_sort_by_offset(runs: &mut Vec<ScatterRun>) {
    const MASK: u64 = (1 << DIGIT_BITS) - 1;
    let max = runs.iter().map(|t| t.file_offset).max().unwrap_or(0);
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(DIGIT_BITS);
    let mut scratch = vec![ScatterRun::default(); runs.len()];
    let mut slot = vec![0usize; 1 << DIGIT_BITS];
    for pass in 0..passes {
        let digit = |t: &ScatterRun| ((t.file_offset >> (pass * DIGIT_BITS)) & MASK) as usize;
        slot.fill(0);
        for t in runs.iter() {
            slot[digit(t)] += 1;
        }
        if slot.contains(&runs.len()) {
            continue;
        }
        let mut at = 0;
        for s in slot.iter_mut() {
            (at, *s) = (at + *s, at);
        }
        for t in runs.iter() {
            let s = &mut slot[digit(t)];
            scratch[*s] = *t;
            *s += 1;
        }
        std::mem::swap(runs, &mut scratch);
    }
}

/// The coalesced aggregate request of `runs` (sorted by file offset),
/// without sorting them a second time.
fn aggregate_of(runs: &[ScatterRun]) -> Vec<Extent> {
    let mut aggregate = Vec::from_iter(runs.iter().map(|t| Extent::new(t.file_offset, t.bytes())));
    merge_sorted(&mut aggregate);
    aggregate
}

/// The shared scatter geometry of a collective read, derived
/// identically by every participant from the request list alone: the
/// window access plan, all ranks' placed runs sorted by file offset,
/// and the fault-independent per-rank piece expectations of the
/// exchange phase.
///
/// Every real executor — the in-process scatter below, the
/// message-passing scatter in `pvr-core`'s frame scheduler (with or
/// without a fault plan), and the per-rank prefetch of the
/// animation driver — builds on this one computation, so their expected
/// piece sets can never drift apart: [`pieces_in`](Self::pieces_in) is
/// a window's fan-out, [`sends_in`](Self::sends_in) the same pieces
/// grouped into the messages that carry them.
#[derive(Debug, Clone)]
pub struct ScatterPlan {
    pub plan: IoPlan,
    /// Every placed run, sorted by `(file_offset, rank)`: the read plan
    /// of a message-passing frame, held once.
    pub runs: Vec<ScatterRun>,
    /// Exchange-phase pieces each rank will receive.
    pub piece_counts: Vec<usize>,
    /// Bytes of those pieces, per rank.
    pub piece_bytes: Vec<u64>,
    /// Bytes of the longest run: how far before a window the first run
    /// that reaches into it can start.
    longest_run: u64,
}

impl ScatterPlan {
    /// Plan the scatter of a collective read: sort the placed runs,
    /// coalesce them into the aggregate request, lay the window
    /// accesses, and precompute each rank's expected piece count and
    /// bytes.
    pub fn build(
        requests: &[RankRequest],
        num_aggregators: usize,
        hints: &CollectiveHints,
    ) -> ScatterPlan {
        let nranks = requests.len();
        let naggr = num_aggregators.clamp(1, nranks.max(1));

        let runs = sorted_runs(requests);
        let plan = two_phase_plan(&aggregate_of(&runs), naggr, hints);

        let mut piece_counts = vec![0usize; nranks];
        let mut piece_bytes = vec![0u64; nranks];
        let sp = ScatterPlan {
            plan,
            longest_run: runs.iter().map(ScatterRun::bytes).max().unwrap_or(0),
            runs,
            piece_counts: Vec::new(),
            piece_bytes: Vec::new(),
        };
        for a in &sp.plan.accesses {
            for p in sp.pieces_in(a.extent) {
                piece_counts[p.rank] += 1;
                piece_bytes[p.rank] += p.len() as u64;
            }
        }
        ScatterPlan {
            piece_counts,
            piece_bytes,
            ..sp
        }
    }

    /// Which of `nranks` ranks hosts aggregator `j` (evenly spread, the
    /// BG/P placement both executors use).
    pub fn aggregator_rank(&self, j: usize, nranks: usize) -> usize {
        j * nranks / self.plan.num_aggregators
    }

    /// The exchange pieces of one window, in ascending-run order — the
    /// fan-out every scatter implementation walks. Runs can span
    /// adjacent windows, so each piece is the (nonempty) window∩run
    /// overlap. Runs can also nest (one rank's run inside another's), so
    /// "ends before the window" is not monotone along the sorted runs;
    /// "starts a longest run or more before it" is, and the filter drops
    /// the few runs in between that end before the window.
    pub fn pieces_in(&self, w: Extent) -> impl Iterator<Item = Piece> + '_ {
        let start = self
            .runs
            .partition_point(move |t| t.file_offset + self.longest_run <= w.offset);
        self.runs[start..]
            .iter()
            .take_while(move |t| t.file_offset < w.end())
            .filter_map(move |t| {
                let off = t.file_offset;
                let lo = off.max(w.offset);
                let hi = t.end().min(w.end());
                if lo >= hi {
                    return None;
                }
                Some(Piece {
                    rank: t.rank as usize,
                    out_byte: t.out_byte + (lo - off) as usize,
                    src_lo: (lo - w.offset) as usize,
                    src_hi: (hi - w.offset) as usize,
                    file_lo: lo,
                    file_hi: hi,
                })
            })
    }

    /// The exchange messages of one window: its pieces sorted by
    /// destination rank, file order kept within a destination. Every
    /// maximal run of one `rank` (`chunk_by`) is one message — what an
    /// aggregator sends that rank out of this window read. Grouped here,
    /// as the window is sent, so planning pays nothing for it.
    /// `pieces_in` walks the pieces in file order, so one stable counting
    /// pass over the window's rank range groups them — `O(pieces +
    /// ranks spanned)`, no comparison sort.
    pub fn sends_in(&self, w: Extent) -> Vec<Piece> {
        let pieces: Vec<Piece> = self.pieces_in(w).collect();
        let Some(lo) = pieces.iter().map(|p| p.rank).min() else {
            return pieces;
        };
        let hi = pieces.iter().map(|p| p.rank).max().unwrap_or(lo);
        let mut at = vec![0usize; hi - lo + 1];
        for p in &pieces {
            at[p.rank - lo] += 1;
        }
        let mut sum = 0;
        for a in at.iter_mut() {
            (sum, *a) = (sum + *a, sum);
        }
        let mut sends = pieces.clone();
        for p in pieces {
            sends[at[p.rank - lo]] = p;
            at[p.rank - lo] += 1;
        }
        sends
    }
}

/// Result of executing a collective read for real.
#[derive(Debug)]
pub struct ExecResult {
    /// Raw on-disk bytes of each rank's request, in placed-run order.
    pub rank_bytes: Vec<Vec<u8>>,
    pub plan: IoPlan,
    /// Bytes moved aggregator → non-self rank in the exchange phase.
    pub exchange_bytes: u64,
}

/// Execute a two-phase collective read against a real local file.
///
/// `requests[r]` is rank `r`'s request; aggregators are the evenly
/// spaced ranks `j * nranks / naggr`. Returns each rank's bytes (still
/// in on-disk byte order — decode with the layout's endianness) plus the
/// realized plan.
pub fn two_phase_execute(
    file: &mut File,
    requests: &[RankRequest],
    num_aggregators: usize,
    hints: &CollectiveHints,
) -> std::io::Result<ExecResult> {
    let sp = ScatterPlan::build(requests, num_aggregators, hints);
    let mut rank_bytes: Vec<Vec<u8>> = requests
        .iter()
        .map(|rq| vec![0u8; rq.out_elems * ELEM_SIZE as usize])
        .collect();
    let copy = |bytes: &[u8], out: &mut [u8]| out.copy_from_slice(bytes);
    let tracer = pvr_obs::Tracer::disabled();
    let exchange_bytes = read_windows(file, &sp, requests, &mut rank_bytes, copy, &tracer)?;
    Ok(ExecResult {
        rank_bytes,
        plan: sp.plan,
        exchange_bytes,
    })
}

/// [`two_phase_execute`]'s read, decoded as it is scattered: every
/// piece goes from the stripe buffer straight into `out[rank]`,
/// `requests[rank].out_elems` floats in placed-run order, decoded from
/// `endian`. Elements no run asks for keep what `out` held. Returns the
/// realized plan and the exchange bytes; the windows and the bytes every
/// element ends up with are [`two_phase_execute`]'s.
///
/// With an enabled `tracer`, each physical window access becomes an
/// `io.window` span on the track of the aggregator rank that issues it
/// (args: file offset and bytes read), so the per-access signature of
/// the collective read — the paper's Figure 9 — shows up directly on
/// the timeline. A disabled tracer records nothing.
pub fn two_phase_decode(
    file: &mut File,
    requests: &[RankRequest],
    num_aggregators: usize,
    hints: &CollectiveHints,
    endian: Endian,
    out: &mut [Vec<f32>],
    tracer: &pvr_obs::Tracer,
) -> std::io::Result<(IoPlan, u64)> {
    let fits = |(o, rq): (&Vec<f32>, &RankRequest)| o.len() == rq.out_elems;
    assert!(
        out.len() == requests.len() && out.iter().zip(requests).all(fits),
        "one output of `out_elems` floats per request"
    );
    let sp = ScatterPlan::build(requests, num_aggregators, hints);
    let decode = |bytes: &[u8], out: &mut [f32]| endian.decode_slice(bytes, out);
    let exchange_bytes = read_windows(file, &sp, requests, out, decode, tracer)?;
    Ok((sp.plan, exchange_bytes))
}

/// Bytes of one positional read. A window is read in stripes that end
/// at absolute file offsets that are multiples of this (or at the
/// window's end), each into the aggregator's one buffer of at most this
/// size, so the buffer does not grow with `cb_buffer_size`.
const STRIPE: u64 = 256 << 10;

/// The one window loop of the collective read. The accesses of `sp` are
/// grouped by aggregator, and the groups run on the data-parallel pool
/// (inline at one thread), each reading its own windows with positional
/// reads — no shared cursor — one stripe at a time, inside one
/// `io.window` span per access on its aggregator's track. A short read
/// is `UnexpectedEof`. Every piece∩stripe goes to its rank's output
/// through `decode`, which turns whole on-disk elements into `T`s; each
/// group writes only the output ranges [`tiles`] split off for it. An
/// element split between two groups waits in both groups' stashes,
/// which merge after the join. Returns the bytes that went to a rank
/// other than their window's aggregator.
fn read_windows<T, D>(
    file: &File,
    sp: &ScatterPlan,
    requests: &[RankRequest],
    out: &mut [Vec<T>],
    decode: D,
    tracer: &pvr_obs::Tracer,
) -> std::io::Result<u64>
where
    T: Send,
    D: Fn(&[u8], &mut [T]) + Sync,
{
    let groups: Vec<&[Access]> = sp
        .plan
        .accesses
        .chunk_by(|a, b| a.aggregator == b.aggregator)
        .collect();
    let ends: Vec<u64> = groups.iter().map(|g| g[g.len() - 1].extent.end()).collect();
    let tiles = tiles(out, requests, &ends);
    let nranks = requests.len();
    let done: Vec<std::io::Result<(u64, Vec<Split>)>> = groups
        .into_par_iter()
        .zip(tiles)
        .map(|(group, tiles)| {
            let host = sp.aggregator_rank(group[0].aggregator, nranks);
            let mut sink = Sink {
                tiles,
                decode: &decode,
                stash: Vec::new(),
            };
            let largest = group.iter().map(|a| a.extent.len).max().unwrap_or(0);
            let mut buf = vec![0u8; largest.min(STRIPE) as usize];
            let mut exchange_bytes = 0u64;
            for a in group {
                let w = a.extent;
                let _span = tracer.span_args(
                    host as pvr_obs::span::TrackId,
                    "io.window",
                    pvr_obs::Args::two("offset", w.offset, "bytes", w.len),
                );
                let mut at = w.offset;
                while at < w.end() {
                    let stripe = Extent::new(at, ((at / STRIPE + 1) * STRIPE).min(w.end()) - at);
                    let bytes = &mut buf[..stripe.len as usize];
                    file.read_exact_at(bytes, stripe.offset)?;
                    for p in sp.pieces_in(stripe) {
                        sink.piece(&p, &bytes[p.src_lo..p.src_hi]);
                        if p.rank != host {
                            exchange_bytes += p.len() as u64;
                        }
                    }
                    at = stripe.end();
                }
            }
            Ok((exchange_bytes, sink.stash))
        })
        .collect();

    let (mut exchange_bytes, mut open) = (0u64, Vec::new());
    for group in done {
        let (bytes, stash) = group?;
        exchange_bytes += bytes;
        open.extend(stash);
    }
    // Each (rank, output byte) comes in exactly one piece, so the bytes
    // of a split element are disjoint and OR together.
    open.sort_by_key(|s| (s.rank, s.elem));
    for parts in open.chunk_by(|a, b| (a.rank, a.elem) == (b.rank, b.elem)) {
        let (rank, elem) = (parts[0].rank, parts[0].elem);
        let mut whole = [0u8; ELEM_SIZE as usize];
        for p in parts {
            whole.iter_mut().zip(p.bytes).for_each(|(w, b)| *w |= b);
        }
        debug_assert_eq!(
            parts.iter().map(|p| p.have).sum::<usize>(),
            size_of::<T>(),
            "every run byte is in exactly one piece"
        );
        decode(&whole[..size_of::<T>()], &mut out[rank][elem..elem + 1]);
    }
    Ok(exchange_bytes)
}

/// `(out_lo, out_hi, group)`: output bytes of one rank that one
/// aggregator group fills.
type Segment = (usize, usize, usize);

/// Split every rank's output into the ranges the aggregator groups
/// fill, with `split_at_mut` in output order: per group, its
/// [`Tile`]s sorted by `(rank, first)`. `ends[g]` is where group `g`'s
/// last window ends; the groups' windows lie in disjoint, ascending file
/// domains, so every run byte belongs to the first group ending after
/// it. An element whose bytes two groups fill lies in no tile. Where a
/// rank's runs ascend in the file as they do in its output — every
/// layout here — a rank has one segment per group it reads from.
fn tiles<'a, T>(
    out: &'a mut [Vec<T>],
    requests: &[RankRequest],
    ends: &[u64],
) -> Vec<Vec<Tile<'a, T>>> {
    let elem = size_of::<T>();
    let mut tiles: Vec<Vec<Tile<'a, T>>> = ends.iter().map(|_| Vec::new()).collect();
    for (rank, (data, rq)) in out.iter_mut().zip(requests).enumerate() {
        let (mut rest, mut at) = (data.as_mut_slice(), 0);
        for (lo, hi, g) in segments(rq, ends) {
            let (first, end) = (lo.div_ceil(elem), hi / elem);
            if first >= end {
                continue;
            }
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(first - at);
            let (data, tail) = tail.split_at_mut(end - first);
            tiles[g].push(Tile { rank, first, data });
            (rest, at) = (tail, end);
        }
    }
    tiles
}

/// One rank's [`Segment`]s in output order, adjacent ones of one group
/// merged. The gap between two merged parts holds bytes no run asks
/// for, which no group writes.
fn segments(rq: &RankRequest, ends: &[u64]) -> Vec<Segment> {
    let parts = || {
        rq.runs.iter().flat_map(move |r| {
            let (end, out) = (
                r.file_offset + r.elems as u64 * ELEM_SIZE,
                r.out_start * ELEM_SIZE as usize,
            );
            let mut at = r.file_offset;
            std::iter::from_fn(move || {
                (at < end).then(|| {
                    let g = ends.partition_point(|&e| e <= at);
                    let hi = end.min(ends[g]);
                    let part = (
                        out + (at - r.file_offset) as usize,
                        out + (hi - r.file_offset) as usize,
                        g,
                    );
                    at = hi;
                    part
                })
            })
        })
    };
    merged(parts()).unwrap_or_else(|| {
        let mut sorted: Vec<Segment> = parts().collect();
        sorted.sort_unstable();
        merged(sorted.into_iter()).expect("a rank's runs fill disjoint output ranges")
    })
}

/// `parts` with adjacent ones of one group merged, or `None` if they
/// are not in output order.
fn merged(parts: impl Iterator<Item = Segment>) -> Option<Vec<Segment>> {
    let mut segs: Vec<Segment> = Vec::new();
    for (lo, hi, g) in parts {
        match segs.last_mut() {
            Some(last) if last.1 > lo => return None,
            Some(last) if last.2 == g => last.1 = hi,
            _ => segs.push((lo, hi, g)),
        }
    }
    Some(segs)
}

/// The output elements `first..first + data.len()` of `rank` that one
/// aggregator group writes.
struct Tile<'a, T> {
    rank: usize,
    first: usize,
    data: &'a mut [T],
}

/// The ≤ 3 bytes of element `elem` of `rank` that one group has read,
/// at their places in `bytes` (the rest zero).
struct Split {
    rank: usize,
    elem: usize,
    bytes: [u8; ELEM_SIZE as usize],
    have: usize,
}

/// One aggregator group's writer. A piece's whole elements decode in
/// place. Where a window or a stripe begins partway into an element —
/// a file domain boundary, or a `cb_buffer_size`, that is not a
/// multiple of 4 — the element is split between two pieces: the ≤ 3
/// leading and ≤ 3 trailing bytes of a piece wait in `stash` until all
/// the element's bytes have arrived. An element completed here lies in
/// one of this group's tiles; one whose bytes two groups read stays in
/// both stashes for [`read_windows`] to merge.
struct Sink<'a, T, D> {
    tiles: Vec<Tile<'a, T>>,
    decode: &'a D,
    stash: Vec<Split>,
}

impl<T, D: Fn(&[u8], &mut [T])> Sink<'_, T, D> {
    fn piece(&mut self, p: &Piece, bytes: &[u8]) {
        let elem = size_of::<T>();
        let (lo, hi) = (p.out_byte, p.out_byte + bytes.len());
        // The elements that lie wholly inside the piece.
        let (first, end) = (lo.div_ceil(elem), hi / elem);
        if first >= end {
            self.stash(p.rank, lo, bytes);
            return;
        }
        let (head, rest) = bytes.split_at(first * elem - lo);
        let (whole, tail) = rest.split_at((end - first) * elem);
        self.stash(p.rank, lo, head);
        (self.decode)(whole, self.tile(p.rank, first, end));
        self.stash(p.rank, end * elem, tail);
    }

    /// Output elements `first..end` of `rank`, which one tile holds.
    fn tile(&mut self, rank: usize, first: usize, end: usize) -> &mut [T] {
        let i = self
            .tiles
            .partition_point(|t| (t.rank, t.first) <= (rank, first));
        let t = &mut self.tiles[i - 1];
        &mut t.data[first - t.first..end - t.first]
    }

    /// Keep `bytes`, which start at output byte `at` of `rank` and hold
    /// no whole element, and decode each element they complete.
    fn stash(&mut self, rank: usize, mut at: usize, mut bytes: &[u8]) {
        let elem = size_of::<T>();
        while !bytes.is_empty() {
            let (e, k) = (at / elem, at % elem);
            let n = (elem - k).min(bytes.len());
            let i = match self
                .stash
                .iter()
                .rposition(|s| (s.rank, s.elem) == (rank, e))
            {
                Some(i) => i,
                None => {
                    self.stash.push(Split {
                        rank,
                        elem: e,
                        bytes: [0; ELEM_SIZE as usize],
                        have: 0,
                    });
                    self.stash.len() - 1
                }
            };
            let part = &mut self.stash[i];
            part.bytes[k..k + n].copy_from_slice(&bytes[..n]);
            part.have += n;
            if part.have == elem {
                let whole = self.stash.swap_remove(i).bytes;
                (self.decode)(&whole[..elem], self.tile(rank, e, e + 1));
            }
            (at, bytes) = (at + n, &bytes[n..]);
        }
    }
}

/// Result of executing a collective write.
#[derive(Debug)]
pub struct WriteResult {
    pub plan: IoPlan,
    /// Windows that required read-modify-write because the aggregate
    /// request left holes inside them (ROMIO's write-side behaviour).
    pub rmw_windows: usize,
    /// Bytes moved rank → non-self aggregator in the exchange phase.
    pub exchange_bytes: u64,
}

/// Execute a two-phase collective **write** against a real local file —
/// the path the paper used to produce its upsampled 2240³/4480³ time
/// steps ("the upsampling was performed efficiently, in parallel, with
/// the same BG/P architecture and collective I/O").
///
/// `requests[r]` describes where rank `r`'s bytes land in the file
/// (placed runs) and `rank_data[r]` holds those bytes in run order.
/// Aggregators assemble their windows from the ranks' pieces and issue
/// one contiguous write per window; windows containing holes (bytes no
/// rank supplies) are read-modify-written so existing file content
/// survives, exactly like ROMIO.
pub fn two_phase_write(
    file: &mut File,
    requests: &[RankRequest],
    rank_data: &[Vec<u8>],
    num_aggregators: usize,
    hints: &CollectiveHints,
) -> std::io::Result<WriteResult> {
    use std::io::Write;
    assert_eq!(requests.len(), rank_data.len());
    let nranks = requests.len();

    // A piece's `out_byte` is its byte offset in the rank's source data
    // here.
    let sp = ScatterPlan::build(requests, num_aggregators, hints);
    let aggregate = aggregate_of(&sp.runs);
    let mut rmw_windows = 0usize;
    let mut exchange_bytes = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    for a in &sp.plan.accesses {
        let w = a.extent;
        buf.resize(w.len as usize, 0);
        // Hole detection: do the runs cover the whole window?
        let covered: u64 = clip(&aggregate, w).iter().map(|e| e.len).sum();
        if covered < w.len {
            // Read-modify-write to preserve unwritten bytes.
            rmw_windows += 1;
            file.seek(SeekFrom::Start(w.offset))?;
            file.read_exact(&mut buf)?;
        }
        // Gather the ranks' pieces into the window buffer.
        let host = sp.aggregator_rank(a.aggregator, nranks);
        for p in sp.pieces_in(w) {
            buf[p.src_lo..p.src_hi]
                .copy_from_slice(&rank_data[p.rank][p.out_byte..p.out_byte + p.len()]);
            if p.rank != host {
                exchange_bytes += p.len() as u64;
            }
        }
        file.seek(SeekFrom::Start(w.offset))?;
        file.write_all(&buf)?;
    }
    file.flush()?;
    Ok(WriteResult {
        plan: sp.plan,
        rmw_windows,
        exchange_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    fn ext(o: u64, l: u64) -> Extent {
        Extent::new(o, l)
    }

    #[test]
    fn contiguous_request_reads_exactly_once() {
        // Raw-mode analogue: one contiguous extent, default hints.
        let agg = vec![ext(0, 100 << 20)];
        let plan = two_phase_plan(&agg, 4, &CollectiveHints::default());
        assert_eq!(plan.physical_bytes, 100 << 20);
        assert_eq!(plan.unique_bytes, 100 << 20);
        assert!((plan.data_density() - 1.0).abs() < 1e-9);
        // 100 MiB / 16 MiB windows, split over 4 domains of 25 MiB:
        // 2 windows each (16 + 9).
        assert_eq!(plan.accesses.len(), 8);
    }

    #[test]
    fn big_windows_swallow_record_gaps() {
        // netCDF-record analogue: 5 MB runs every 25 MB, windows 16 MiB.
        let run = 5_000_000u64;
        let stride = 25_000_000u64;
        let agg: Vec<Extent> = (0..40).map(|z| ext(512 + z * stride, run)).collect();
        let plan = two_phase_plan(&agg, 4, &CollectiveHints::default());
        // Most of the span gets read: density well below the 0.2 the
        // interleaving implies is useful.
        let density = plan.data_density();
        assert!(density < 0.35, "density {density}");
        // Mean access is the full window ("roughly 15 MB" in the paper).
        assert!(
            plan.mean_access_bytes() > 10e6,
            "mean {}",
            plan.mean_access_bytes()
        );
    }

    #[test]
    fn record_sized_windows_double_read_misaligned_records() {
        // Tuned case: window == record size, but file-domain boundaries
        // misalign the window grid, so most records straddle 2 windows.
        let run = 5_000_000u64;
        let stride = 25_000_000u64;
        let agg: Vec<Extent> = (0..40).map(|z| ext(512 + z * stride, run)).collect();
        let hints = CollectiveHints::tuned(run);
        let plan = two_phase_plan(&agg, 7, &hints);
        let density = plan.data_density();
        // ~0.45–1.0 depending on alignment; must beat the untuned case.
        let untuned = two_phase_plan(&agg, 7, &CollectiveHints::default());
        assert!(
            density > untuned.data_density(),
            "tuned {density} untuned {}",
            untuned.data_density()
        );
        assert!(plan.physical_bytes <= 3 * plan.useful_bytes);
    }

    #[test]
    fn domains_partition_the_span() {
        let agg = vec![ext(100, 50), ext(1000, 500)];
        let doms = file_domains(&agg, 3);
        assert_eq!(doms[0].offset, 100);
        assert_eq!(doms.last().unwrap().end(), 1500);
        let total: u64 = doms.iter().map(|d| d.len).sum();
        assert_eq!(total, 1400);
        for w in doms.windows(2) {
            assert_eq!(w[0].end(), w[1].offset);
        }
    }

    #[test]
    fn empty_aggregate_produces_no_accesses() {
        let plan = two_phase_plan(&[], 8, &CollectiveHints::default());
        assert_eq!(plan.accesses.len(), 0);
        assert_eq!(plan.useful_bytes, 0);
        assert!((plan.data_density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_aggregators_never_lose_bytes() {
        let agg: Vec<Extent> = (0..20).map(|i| ext(i * 1000, 300)).collect();
        for naggr in [1, 2, 3, 5, 8, 16] {
            let plan = two_phase_plan(
                &agg,
                naggr,
                &CollectiveHints {
                    cb_buffer_size: 4096,
                    cb_nodes: None,
                },
            );
            // Every useful byte is inside some access.
            let acc: Vec<Extent> = plan.accesses.iter().map(|a| a.extent).collect();
            for e in &agg {
                let covered: u64 = acc
                    .iter()
                    .filter_map(|a| a.intersect(e))
                    .map(|x| x.len)
                    .sum();
                assert!(
                    covered >= e.len,
                    "naggr={naggr}: extent {e:?} covered {covered}"
                );
            }
        }
    }

    #[test]
    fn execute_reads_correct_bytes_and_counts_exchange() {
        // Build a real file of 64 KiB with a known pattern.
        let dir = std::env::temp_dir().join(format!("pvr-pfs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("twophase.bin");
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();

        // 4 ranks, each asking for two fragments (expressed as runs of
        // 4-byte elements).
        let mk = |off: u64, elems: usize, out: usize| PlacedRun {
            file_offset: off,
            elems,
            out_start: out,
        };
        let requests = vec![
            RankRequest {
                runs: vec![mk(0, 8, 0), mk(1024, 8, 8)],
                out_elems: 16,
            },
            RankRequest {
                runs: vec![mk(4096, 16, 0)],
                out_elems: 16,
            },
            RankRequest {
                runs: vec![mk(60000, 4, 0), mk(32000, 4, 4)],
                out_elems: 8,
            },
            RankRequest {
                runs: vec![mk(100, 25, 0)],
                out_elems: 25,
            },
        ];
        let mut f = File::open(&path).unwrap();
        let res = two_phase_execute(
            &mut f,
            &requests,
            2,
            &CollectiveHints {
                cb_buffer_size: 8192,
                cb_nodes: None,
            },
        )
        .unwrap();

        for (r, rq) in requests.iter().enumerate() {
            for run in &rq.runs {
                let nbytes = run.elems * 4;
                let got = &res.rank_bytes[r][run.out_start * 4..run.out_start * 4 + nbytes];
                let want = &data[run.file_offset as usize..run.file_offset as usize + nbytes];
                assert_eq!(got, want, "rank {r} run {run:?}");
            }
        }
        assert!(res.exchange_bytes > 0);
        assert!(res.plan.physical_bytes >= res.plan.useful_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collective_write_round_trips() {
        let dir = std::env::temp_dir().join(format!("pvr-pfs-w-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("write.bin");
        // Pre-existing content that holes must preserve.
        std::fs::write(&path, vec![0xEEu8; 65536]).unwrap();

        let mk = |off: u64, elems: usize, out: usize| PlacedRun {
            file_offset: off,
            elems,
            out_start: out,
        };
        let requests = vec![
            RankRequest {
                runs: vec![mk(0, 8, 0), mk(1024, 8, 8)],
                out_elems: 16,
            },
            RankRequest {
                runs: vec![mk(4096, 16, 0)],
                out_elems: 16,
            },
            RankRequest {
                runs: vec![mk(60000, 4, 0)],
                out_elems: 4,
            },
        ];
        let rank_data: Vec<Vec<u8>> = requests
            .iter()
            .enumerate()
            .map(|(r, rq)| {
                (0..rq.out_elems * 4)
                    .map(|i| (r * 50 + i % 40) as u8)
                    .collect()
            })
            .collect();

        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let res = two_phase_write(
            &mut f,
            &requests,
            &rank_data,
            2,
            &CollectiveHints {
                cb_buffer_size: 8192,
                cb_nodes: None,
            },
        )
        .unwrap();
        drop(f);

        let file = std::fs::read(&path).unwrap();
        // Every run's bytes landed where its placed run says.
        for (r, rq) in requests.iter().enumerate() {
            for run in &rq.runs {
                let nb = run.elems * 4;
                assert_eq!(
                    &file[run.file_offset as usize..run.file_offset as usize + nb],
                    &rank_data[r][run.out_start * 4..run.out_start * 4 + nb],
                    "rank {r}"
                );
            }
        }
        // A hole byte inside a written window survived via RMW.
        assert!(res.rmw_windows > 0);
        assert_eq!(file[100], 0xEE, "hole clobbered");
        assert_eq!(file[5000], 0xEE, "hole clobbered past run");
        assert!(res.exchange_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn contiguous_collective_write_needs_no_rmw() {
        let dir = std::env::temp_dir().join(format!("pvr-pfs-w2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contig.bin");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        // Two ranks covering [0, 4096) exactly.
        let requests = vec![
            RankRequest {
                runs: vec![PlacedRun {
                    file_offset: 0,
                    elems: 512,
                    out_start: 0,
                }],
                out_elems: 512,
            },
            RankRequest {
                runs: vec![PlacedRun {
                    file_offset: 2048,
                    elems: 512,
                    out_start: 0,
                }],
                out_elems: 512,
            },
        ];
        let rank_data = vec![vec![7u8; 2048], vec![9u8; 2048]];
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let res = two_phase_write(
            &mut f,
            &requests,
            &rank_data,
            2,
            &CollectiveHints {
                cb_buffer_size: 1024,
                cb_nodes: None,
            },
        )
        .unwrap();
        assert_eq!(res.rmw_windows, 0);
        drop(f);
        let file = std::fs::read(&path).unwrap();
        assert!(file[..2048].iter().all(|&b| b == 7));
        assert!(file[2048..].iter().all(|&b| b == 9));
    }

    #[test]
    fn traced_decode_emits_one_window_span_per_access() {
        let dir = std::env::temp_dir().join(format!("pvr-pfs-tr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traced.bin");
        std::fs::write(&path, vec![3u8; 65536]).unwrap();
        let requests = vec![
            RankRequest {
                runs: vec![PlacedRun {
                    file_offset: 0,
                    elems: 1024,
                    out_start: 0,
                }],
                out_elems: 1024,
            },
            RankRequest {
                runs: vec![PlacedRun {
                    file_offset: 16384,
                    elems: 1024,
                    out_start: 0,
                }],
                out_elems: 1024,
            },
        ];
        let tracer = pvr_obs::Tracer::wall();
        let mut f = File::open(&path).unwrap();
        let mut out = vec![vec![0f32; 1024]; 2];
        let (plan, _) = two_phase_decode(
            &mut f,
            &requests,
            2,
            &CollectiveHints {
                cb_buffer_size: 4096,
                cb_nodes: None,
            },
            Endian::Little,
            &mut out,
            &tracer,
        )
        .unwrap();
        let profile = tracer.finish();
        let begins = profile
            .events
            .iter()
            .filter(|e| e.name == "io.window" && e.kind == pvr_obs::span::EventKind::Begin)
            .count();
        assert_eq!(begins, plan.accesses.len());
        // Every span carries the window's byte count.
        let total: u64 = profile
            .events
            .iter()
            .filter(|e| e.name == "io.window" && e.kind == pvr_obs::span::EventKind::Begin)
            .map(|e| e.args.iter().find(|(k, _)| *k == "bytes").unwrap().1)
            .sum();
        assert_eq!(total, plan.physical_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn element_straddling_two_domains_decodes_whole() {
        // Rank 0 asks for 3 elements at byte 0, rank 1 for 2 at byte 12:
        // a 20-byte span, so the two aggregators' domains meet at byte 10,
        // inside rank 0's third element (bytes 8..12).
        let values = [1.5f32, -2.25, f32::from_bits(0x7fc0_1234), 1e-42, -0.0];
        let mk = |file_offset: u64, elems: usize| RankRequest {
            runs: vec![PlacedRun {
                file_offset,
                elems,
                out_start: 0,
            }],
            out_elems: elems,
        };
        let requests = vec![mk(0, 3), mk(12, 2)];
        let aggregate = aggregate_of(&sorted_runs(&requests));
        assert_eq!(file_domains(&aggregate, 2)[1].offset, 10);
        let dir = std::env::temp_dir().join(format!("pvr-pfs-split-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for endian in [Endian::Little, Endian::Big] {
            let path = dir.join(format!("split-{endian:?}.bin"));
            let bytes: Vec<u8> = values.iter().flat_map(|v| endian.encode(*v)).collect();
            std::fs::write(&path, &bytes).unwrap();
            let hints = CollectiveHints {
                cb_buffer_size: 16,
                cb_nodes: None,
            };
            let sp = ScatterPlan::build(&requests, 2, &hints);
            let cut: Vec<Piece> = sp
                .plan
                .accesses
                .iter()
                .flat_map(|a| sp.pieces_in(a.extent))
                .filter(|p| p.rank == 0 && p.file_hi > 8)
                .collect();
            assert_eq!(cut.len(), 2, "the element arrives in two pieces: {cut:?}");
            let mut out = vec![vec![0.0f32; 3], vec![0.0f32; 2]];
            let tracer = pvr_obs::Tracer::disabled();
            let mut f = File::open(&path).unwrap();
            let (plan, _) =
                two_phase_decode(&mut f, &requests, 2, &hints, endian, &mut out, &tracer).unwrap();
            assert_eq!(plan.accesses.len(), 2);
            let got: Vec<u32> = out.concat().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{endian:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn short_window_read_is_unexpected_eof() {
        let dir = std::env::temp_dir().join(format!("pvr-pfs-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("short.bin");
        std::fs::write(&path, vec![1u8; 100]).unwrap();
        let requests = vec![RankRequest {
            runs: vec![PlacedRun {
                file_offset: 64,
                elems: 16,
                out_start: 0,
            }],
            out_elems: 16,
        }];
        let hints = CollectiveHints::default();
        let mut f = File::open(&path).unwrap();
        let e = two_phase_execute(&mut f, &requests, 1, &hints).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
        let mut out = vec![vec![0.0f32; 16]];
        let tracer = pvr_obs::Tracer::disabled();
        let e = two_phase_decode(&mut f, &requests, 1, &hints, Endian::Big, &mut out, &tracer)
            .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn runs_listed_out_of_output_order_land_where_they_are_placed() {
        // Rank 0 lists its runs against output order, and they come from
        // both aggregators' domains, so its tiles come from the sorted
        // fallback of `segments`.
        let dir = std::env::temp_dir().join(format!("pvr-pfs-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("order.bin");
        let data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let mk = |file_offset: u64, elems: usize, out_start: usize| PlacedRun {
            file_offset,
            elems,
            out_start,
        };
        let requests = vec![
            RankRequest {
                runs: vec![mk(1000, 500, 300), mk(6000, 300, 0), mk(3002, 200, 800)],
                out_elems: 1000,
            },
            RankRequest {
                runs: vec![mk(2600, 100, 0)],
                out_elems: 100,
            },
        ];
        let hints = CollectiveHints {
            cb_buffer_size: 1001,
            cb_nodes: None,
        };
        let mut f = File::open(&path).unwrap();
        let res = two_phase_execute(&mut f, &requests, 2, &hints).unwrap();
        for (r, rq) in requests.iter().enumerate() {
            for run in &rq.runs {
                let (at, n) = (run.file_offset as usize, run.elems * 4);
                let got = &res.rank_bytes[r][run.out_start * 4..run.out_start * 4 + n];
                assert_eq!(got, &data[at..at + n], "rank {r} run {run:?}");
            }
        }
        let mut out = vec![vec![0.0f32; 1000], vec![0.0f32; 100]];
        let tracer = pvr_obs::Tracer::disabled();
        two_phase_decode(&mut f, &requests, 2, &hints, Endian::Big, &mut out, &tracer).unwrap();
        for (got, bytes) in out.iter().zip(&res.rank_bytes) {
            let want: Vec<u32> = bytes
                .chunks_exact(4)
                .map(|c| Endian::Big.decode([c[0], c[1], c[2], c[3]]).to_bits())
                .collect();
            assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn runs_spanning_window_boundaries_are_scattered_fully() {
        let dir = std::env::temp_dir().join(format!("pvr-pfs-test2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("span.bin");
        let data: Vec<u8> = (0..32768u32).map(|i| (i % 199) as u8).collect();
        std::fs::write(&path, &data).unwrap();

        // One rank requesting one run that crosses several 1 KiB windows.
        let requests = vec![RankRequest {
            runs: vec![PlacedRun {
                file_offset: 500,
                elems: 2000,
                out_start: 0,
            }],
            out_elems: 2000,
        }];
        let mut f = File::open(&path).unwrap();
        let res = two_phase_execute(
            &mut f,
            &requests,
            3,
            &CollectiveHints {
                cb_buffer_size: 1024,
                cb_nodes: None,
            },
        )
        .unwrap();
        assert_eq!(&res.rank_bytes[0][..], &data[500..500 + 8000]);
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    /// A file that covers every run `ranks_of_runs` can ask for, in which
    /// the 4 bytes at every offset are distinct (a splitmix64 stream,
    /// checked), and which holds NaN and subnormal elements in both byte
    /// orders.
    fn pattern_file() -> &'static PathBuf {
        static FILE: OnceLock<PathBuf> = OnceLock::new();
        FILE.get_or_init(|| {
            let mut state = 0x5eed_u64;
            let bytes: Vec<u8> = (0..21_200)
                .map(|_| {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    (z ^ (z >> 31)) as u8
                })
                .collect();
            let words: Vec<[u8; 4]> = bytes.windows(4).map(|w| [w[0], w[1], w[2], w[3]]).collect();
            let distinct: std::collections::HashSet<_> = words.iter().collect();
            assert_eq!(distinct.len(), words.len(), "pick another seed");
            for endian in [Endian::Little, Endian::Big] {
                let vals = || words.iter().map(|w| endian.decode(*w));
                assert!(vals().any(f32::is_nan), "{endian:?}");
                assert!(vals().any(f32::is_subnormal), "{endian:?}");
            }
            let dir = std::env::temp_dir().join(format!("pvr-pfs-prop-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("pattern.bin");
            std::fs::write(&path, &bytes).unwrap();
            path
        })
    }

    /// Every placed run, rank by rank, in placed-run order.
    fn unsorted_runs(requests: &[RankRequest]) -> Vec<ScatterRun> {
        let mut runs: Vec<ScatterRun> = Vec::new();
        for (rank, rq) in requests.iter().enumerate() {
            for r in &rq.runs {
                runs.push(ScatterRun {
                    file_offset: r.file_offset,
                    out_byte: r.out_start * 4,
                    elems: r.elems as u32,
                    rank: rank as u32,
                });
            }
        }
        runs
    }

    /// `sorted_runs` before it stopped comparing: an unstable sort by
    /// file offset alone — the oracle of the plan's pieces.
    fn unstable_sorted_runs(requests: &[RankRequest]) -> Vec<ScatterRun> {
        let mut runs = unsorted_runs(requests);
        runs.sort_unstable_by_key(|t| t.file_offset);
        runs
    }

    /// Every window∩run overlap of `runs` in run order, by a scan of all
    /// of them: the fan-out with no search to get wrong.
    fn scanned_pieces(runs: &[ScatterRun], w: Extent) -> Vec<Piece> {
        runs.iter()
            .filter_map(|t| {
                let off = t.file_offset;
                let (lo, hi) = (off.max(w.offset), t.end().min(w.end()));
                (lo < hi).then(|| Piece {
                    rank: t.rank as usize,
                    out_byte: t.out_byte + (lo - off) as usize,
                    src_lo: (lo - w.offset) as usize,
                    src_hi: (hi - w.offset) as usize,
                    file_lo: lo,
                    file_hi: hi,
                })
            })
            .collect()
    }

    /// `pieces` with the pieces one rank has at one file offset in
    /// output order — the only order the unstable sorts left open.
    fn settled(mut pieces: Vec<Piece>) -> Vec<Piece> {
        pieces.sort_by_key(|p| (p.rank, p.file_lo, p.out_byte));
        pieces
    }

    /// Up to 5 ranks of up to 7 `(file_offset, elems)` runs each: empty
    /// runs, and runs that touch or overlap within and across ranks.
    fn ranks_of_runs() -> impl Strategy<Value = Vec<Vec<(u64, usize)>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u64..20_000, 0usize..300), 0..8),
            1..6,
        )
    }

    fn requests_of(ranks: Vec<Vec<(u64, usize)>>) -> Vec<RankRequest> {
        let request = |runs: Vec<(u64, usize)>| {
            let mut out_elems = 0;
            let place = |(file_offset, elems)| {
                let out_start = out_elems;
                out_elems += elems;
                PlacedRun {
                    file_offset,
                    elems,
                    out_start,
                }
            };
            RankRequest {
                runs: runs.into_iter().map(place).collect(),
                out_elems,
            }
        };
        ranks.into_iter().map(request).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The plan's accesses always cover every useful byte, for any
        /// extent pattern, aggregator count and buffer size.
        #[test]
        fn plan_covers_request(
            starts in proptest::collection::vec((0u64..200_000, 1u64..5_000), 1..40),
            naggr in 1usize..16,
            cb in 1u64..40_000,
        ) {
            let mut agg: Vec<Extent> = starts.into_iter().map(|(o, l)| Extent::new(o, l)).collect();
            pvr_formats::extent::coalesce(&mut agg);
            let plan = two_phase_plan(&agg, naggr, &CollectiveHints { cb_buffer_size: cb, cb_nodes: None });
            let acc: Vec<Extent> = plan.accesses.iter().map(|a| a.extent).collect();
            for e in &agg {
                let covered: u64 = acc.iter().filter_map(|a| a.intersect(e)).map(|x| x.len).sum();
                prop_assert!(covered >= e.len);
            }
            // Physical I/O is never smaller than useful I/O.
            prop_assert!(plan.physical_bytes >= plan.useful_bytes);
            prop_assert!(plan.unique_bytes <= plan.physical_bytes);
            // No access exceeds the collective buffer.
            for a in &plan.accesses {
                prop_assert!(a.extent.len <= cb);
            }
        }

        /// The one-pass aggregate of the sorted runs is what sorting and
        /// coalescing the same extents a second time gave, so the access
        /// plan is the same plan. Half the cases put every run on a
        /// 2 000-byte grid, so that many runs share an offset.
        #[test]
        fn aggregate_of_sorted_runs_equals_coalesce(
            ranks in ranks_of_runs(),
            naggr in 1usize..8,
            cb in 1u64..8_000,
            coarse in 0usize..2,
        ) {
            let grain = [1, 2_000][coarse];
            let ranks = ranks
                .into_iter()
                .map(|runs| runs.into_iter().map(|(off, n)| (off / grain * grain, n)).collect())
                .collect();
            let requests = requests_of(ranks);
            let mut coalesced: Vec<Extent> = requests
                .iter()
                .flat_map(|rq| &rq.runs)
                .map(|r| Extent::new(r.file_offset, r.elems as u64 * ELEM_SIZE))
                .collect();
            pvr_formats::extent::coalesce(&mut coalesced);
            prop_assert_eq!(&aggregate_of(&sorted_runs(&requests)), &coalesced);

            let hints = CollectiveHints { cb_buffer_size: cb, cb_nodes: None };
            let naggr = naggr.min(requests.len());
            let (got, want) = (
                ScatterPlan::build(&requests, naggr, &hints).plan,
                two_phase_plan(&coalesced, naggr, &hints),
            );
            prop_assert_eq!(got.accesses, want.accesses);
            prop_assert_eq!(
                (got.useful_bytes, got.physical_bytes, got.unique_bytes),
                (want.useful_bytes, want.physical_bytes, want.unique_bytes)
            );

            // The plan's order is `(file_offset, rank)`, fully defined:
            // ties within a rank keep placed-run order.
            let sp = ScatterPlan::build(&requests, naggr, &hints);
            let mut by_key = unsorted_runs(&requests);
            by_key.sort_by_key(|t| (t.file_offset, t.rank));
            prop_assert_eq!(&sp.runs, &by_key);

            // Pieces, and the messages grouping them, are what the
            // comparison sort's runs gave.
            let old = unstable_sorted_runs(&requests);
            let (mut counts, mut bytes) = (vec![0usize; requests.len()], vec![0u64; requests.len()]);
            for a in &sp.plan.accesses {
                let mut sends = scanned_pieces(&old, a.extent);
                for p in &sends {
                    counts[p.rank] += 1;
                    bytes[p.rank] += p.len() as u64;
                }
                sends.sort_unstable_by_key(|p| (p.rank, p.file_lo));
                prop_assert_eq!(settled(sp.sends_in(a.extent)), settled(sends));
            }
            prop_assert_eq!(&sp.piece_counts, &counts);
            prop_assert_eq!(&sp.piece_bytes, &bytes);
        }

        /// Every byte of every run reaches its rank in exactly one piece,
        /// also where runs nest (a run inside another rank's longer one).
        #[test]
        fn every_run_byte_is_in_exactly_one_piece(
            ranks in ranks_of_runs(),
            naggr in 1usize..8,
            cb in 1u64..8_000,
        ) {
            let requests = requests_of(ranks);
            let hints = CollectiveHints { cb_buffer_size: cb, cb_nodes: None };
            let sp = ScatterPlan::build(&requests, naggr, &hints);
            let mut hits: Vec<Vec<u8>> =
                requests.iter().map(|rq| vec![0; rq.out_elems * 4]).collect();
            for a in &sp.plan.accesses {
                for p in sp.pieces_in(a.extent) {
                    hits[p.rank][p.out_byte..p.out_byte + p.len()].iter_mut().for_each(|h| *h += 1);
                }
            }
            for (rq, h) in requests.iter().zip(&hits) {
                for r in &rq.runs {
                    prop_assert!(h[r.out_start * 4..(r.out_start + r.elems) * 4].iter().all(|&n| n == 1));
                }
            }
        }

        /// The decoding sink is the copying one plus `Endian::decode`, bit
        /// for bit, in both byte orders — with buffer sizes and domain
        /// cuts that split elements between windows.
        #[test]
        fn decoded_read_equals_byte_read_then_decode(
            ranks in ranks_of_runs(),
            naggr in 1usize..8,
            cb in 1u64..8_000,
        ) {
            let requests = requests_of(ranks);
            let hints = CollectiveHints { cb_buffer_size: cb, cb_nodes: None };
            let mut f = File::open(pattern_file()).unwrap();
            let res = two_phase_execute(&mut f, &requests, naggr, &hints).unwrap();
            for endian in [Endian::Little, Endian::Big] {
                let mut out: Vec<Vec<f32>> =
                    requests.iter().map(|rq| vec![0.0; rq.out_elems]).collect();
                let tracer = pvr_obs::Tracer::disabled();
                let (plan, exchange) =
                    two_phase_decode(&mut f, &requests, naggr, &hints, endian, &mut out, &tracer)
                        .unwrap();
                prop_assert_eq!(plan.accesses, res.plan.accesses.clone());
                prop_assert_eq!(exchange, res.exchange_bytes);
                for (got, bytes) in out.iter().zip(&res.rank_bytes) {
                    let want: Vec<u32> = bytes
                        .chunks_exact(4)
                        .map(|c| endian.decode([c[0], c[1], c[2], c[3]]).to_bits())
                        .collect();
                    let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }

        /// Per window, the grouped sends are exactly `pieces_in`'s
        /// pieces: each destination once, destinations ascending, and a
        /// destination's pieces in the order `pieces_in` walks them.
        #[test]
        fn grouped_sends_equal_pieces_in(
            ranks in ranks_of_runs(),
            naggr in 1usize..8,
            cb in 1u64..8_000,
        ) {
            let requests = requests_of(ranks);
            let hints = CollectiveHints { cb_buffer_size: cb, cb_nodes: None };
            let sp = ScatterPlan::build(&requests, naggr, &hints);
            let mut counts = vec![0usize; requests.len()];
            for a in &sp.plan.accesses {
                let sends = sp.sends_in(a.extent);
                let groups: Vec<&[Piece]> = sends.chunk_by(|a, b| a.rank == b.rank).collect();
                prop_assert!(groups.windows(2).all(|g| g[0][0].rank < g[1][0].rank));
                for group in groups {
                    let rank = group[0].rank;
                    let want: Vec<Piece> =
                        sp.pieces_in(a.extent).filter(|p| p.rank == rank).collect();
                    prop_assert_eq!(group, &want[..]);
                    counts[rank] += group.len();
                }
                prop_assert_eq!(sends.len(), sp.pieces_in(a.extent).count());
            }
            // What the receivers count is still pieces.
            prop_assert_eq!(counts, sp.piece_counts);
        }
    }
}
