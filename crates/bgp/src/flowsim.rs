//! Discrete-event flow-level network simulation with max-min fair
//! bandwidth sharing.
//!
//! A *flow* is one (possibly aggregated) message between two torus nodes.
//! At any instant every active flow receives its max-min fair share of
//! bandwidth over its dimension-ordered route, computed by progressive
//! filling (water-filling). The simulation advances from event to event
//! (flow start / flow completion); between events rates are constant, so
//! the fluid dynamics are integrated exactly.
//!
//! Two effects the paper observes at scale emerge from the model:
//!
//! * **Link contention** — many flows crossing a shared torus link split
//!   its 425 MB/s, so aggregate bandwidth falls once the schedule stops
//!   being embarrassingly disjoint (hot spots at compositors are the
//!   extreme case: an incast shares the destination's ejection links).
//! * **Small-message collapse** — each endpoint pays a fixed software
//!   overhead per message ([`crate::consts::MSG_OVERHEAD`]); when the
//!   per-message payload drops to hundreds of bytes the overhead term
//!   dominates and effective bandwidth plummets, reproducing the
//!   Kumar/Heidelberger measurements the paper cites.
//!
//! Flows between ranks co-located on one node bypass the network and
//! cost only CPU overhead.

use crate::consts;
use crate::topology::Torus;

/// A single message (or aggregate of identical messages) to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source torus node id.
    pub src: usize,
    /// Destination torus node id.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Start time in seconds (relative to phase start).
    pub start: f64,
}

impl FlowSpec {
    pub fn new(src: usize, dst: usize, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            bytes,
            start: 0.0,
        }
    }
}

/// Result of simulating one communication phase.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of each flow, indexed like the input specs
    /// (seconds from phase start; includes route latency).
    pub completion: Vec<f64>,
    /// Time at which the last flow finished (fluid/network part only).
    pub net_makespan: f64,
    /// Serial per-message CPU time at the busiest endpoint.
    pub cpu_makespan: f64,
    /// Overall phase time: network and endpoint-CPU activity overlap,
    /// so the phase ends when the slower of the two finishes.
    pub makespan: f64,
    /// Total payload bytes moved (excluding intra-node flows).
    pub network_bytes: u64,
    /// Total payload bytes including intra-node (shared-memory) flows.
    pub total_bytes: u64,
    /// Number of messages simulated (pre-aggregation count).
    pub messages: usize,
}

impl SimReport {
    /// Effective aggregate bandwidth of the phase in bytes/s,
    /// counting every payload byte moved (the paper's Figure 4 metric).
    pub fn effective_bandwidth(&self) -> f64 {
        if self.makespan <= 0.0 {
            f64::INFINITY
        } else {
            self.total_bytes as f64 / self.makespan
        }
    }
}

/// Tuning knobs for the simulator. Defaults are the published BG/P
/// constants from [`crate::consts`].
#[derive(Debug, Clone, Copy)]
pub struct SimParams {
    /// Per-directed-link capacity in bytes/s.
    pub link_bw: f64,
    /// Per-hop wire latency in seconds.
    pub hop_latency: f64,
    /// Per-message endpoint software overhead in seconds (paid once at
    /// the sender and once at the receiver).
    pub msg_overhead: f64,
    /// Completion batching tolerance: at each event, flows within this
    /// relative distance of the earliest completion finish together.
    /// `0.0` is exact; a few percent collapses the event count of
    /// near-symmetric schedules (32K-rank direct-send) by orders of
    /// magnitude at a bounded makespan error.
    pub batch_tolerance: f64,
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            link_bw: consts::TORUS_LINK_BW,
            hop_latency: consts::TORUS_HOP_LATENCY,
            msg_overhead: consts::MSG_OVERHEAD,
            batch_tolerance: 0.0,
        }
    }
}

/// Peak achievable point-to-point bandwidth for a message of `bytes`
/// under the LogGP view: one fixed overhead plus serialization at full
/// link rate. This is the "peak" reference curve in Figure 4.
pub fn peak_bandwidth(bytes: u64, params: &SimParams) -> f64 {
    let t = params.msg_overhead + bytes as f64 / params.link_bw;
    bytes as f64 / t
}

/// Internal per-flow simulation state (after aggregation).
struct FlowState {
    /// Indices of the original specs merged into this flow.
    members: Vec<u32>,
    path_start: u32,
    path_len: u32,
    remaining: f64,
    rate: f64,
    start: f64,
    hops: usize,
    /// Max-min weight: number of member messages (k identical parallel
    /// flows claim k fair shares).
    weight: f64,
}

impl FlowState {
    /// The directed links of this flow's route.
    fn path<'p>(&self, path_arena: &'p [u32]) -> &'p [u32] {
        &path_arena[self.path_start as usize..(self.path_start + self.path_len) as usize]
    }
}

/// Flow-level simulator bound to a torus topology.
pub struct FlowSim<'a> {
    torus: &'a Torus,
    params: SimParams,
}

impl<'a> FlowSim<'a> {
    pub fn new(torus: &'a Torus) -> Self {
        FlowSim {
            torus,
            params: SimParams::default(),
        }
    }

    pub fn with_params(torus: &'a Torus, params: SimParams) -> Self {
        FlowSim { torus, params }
    }

    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Reject specs the event loop cannot survive: a NaN start never
    /// compares `<= now` (the loop would spin), a negative or infinite
    /// one breaks the clock, and an endpoint outside the torus would
    /// index the per-node and per-link arrays out of range far from
    /// the cause.
    fn check_specs(&self, specs: &[FlowSpec]) {
        let nodes = self.torus.num_nodes();
        for (i, s) in specs.iter().enumerate() {
            assert!(
                s.start.is_finite() && s.start >= 0.0,
                "flow spec {i}: start {} is not a finite, non-negative time",
                s.start
            );
            for (end, node) in [("src", s.src), ("dst", s.dst)] {
                assert!(
                    node < nodes,
                    "flow spec {i}: {end} node {node} out of range (torus has {nodes} nodes)"
                );
            }
        }
    }

    /// A lower bound on the fluid makespan in one cheap pass: the bytes
    /// crossing the most heavily loaded link, at full link rate. The
    /// exact fluid makespan of a schedule starting at t=0 is never below
    /// this. (Endpoint injection/ejection load is not part of it.)
    pub fn max_link_time(&self, specs: &[FlowSpec]) -> f64 {
        self.check_specs(specs);
        let mut load = vec![0u64; self.torus.num_links()];
        let mut path = Vec::new();
        for s in specs {
            if s.src == s.dst {
                continue;
            }
            path.clear();
            self.torus.route_into(s.src, s.dst, &mut path);
            for &l in &path {
                load[l as usize] += s.bytes;
            }
        }
        let max = load.iter().copied().max().unwrap_or(0);
        max as f64 / self.params.link_bw
    }

    /// Simulate one communication phase and return per-flow completion
    /// times and the phase makespan.
    ///
    /// Endpoint CPU overhead is modeled LogP-style: each endpoint
    /// serially spends [`SimParams::msg_overhead`] per message it sends
    /// or receives; this overlaps with the fluid network transfer, so the
    /// phase completes at `max(net, cpu)`.
    ///
    /// # Panics
    /// If a spec's start is not a finite, non-negative time or an
    /// endpoint is not a node of the torus.
    pub fn run(&self, specs: &[FlowSpec]) -> SimReport {
        self.check_specs(specs);
        let messages = specs.len();

        // --- Endpoint CPU serialization (per original message). ---
        let mut total_bytes = 0u64;
        let mut per_node_msgs = vec![0u64; self.torus.num_nodes()];
        for s in specs {
            total_bytes += s.bytes;
            per_node_msgs[s.src] += 1;
            per_node_msgs[s.dst] += 1;
        }
        let busiest = per_node_msgs.iter().copied().max().unwrap_or(0);
        let cpu_makespan = busiest as f64 * self.params.msg_overhead;

        let mut completion = vec![0.0f64; specs.len()];
        let (mut flows, path_arena, network_bytes) = self.aggregate(specs, &mut completion);
        let net_makespan = self.run_fluid(&mut flows, &path_arena, &mut completion);
        let makespan = net_makespan.max(cpu_makespan);

        SimReport {
            completion,
            net_makespan,
            cpu_makespan,
            makespan,
            network_bytes,
            total_bytes,
            messages,
        }
    }

    /// Aggregate identical-(src,dst,start) messages into weighted flows
    /// and route them: k identical parallel flows behave exactly like
    /// one flow of k x bytes with max-min weight k, which keeps 32K-rank
    /// direct-send schedules tractable. Intra-node messages complete
    /// here. Returns the flows, their routes in one arena, and the
    /// payload bytes that cross the network.
    fn aggregate(
        &self,
        specs: &[FlowSpec],
        completion: &mut [f64],
    ) -> (Vec<FlowState>, Vec<u32>, u64) {
        let mut groups = std::collections::HashMap::<(usize, usize, u64), usize>::new();
        let mut flows: Vec<FlowState> = Vec::new();
        let mut path_arena: Vec<u32> = Vec::new();
        let mut network_bytes = 0u64;

        for (i, s) in specs.iter().enumerate() {
            if s.src == s.dst {
                // Shared-memory copy between co-located ranks: model as
                // overhead-only (memory bandwidth is far above link rate).
                completion[i] = s.start + self.params.msg_overhead;
                continue;
            }
            network_bytes += s.bytes;
            let key = (s.src, s.dst, s.start.to_bits());
            let idx = *groups.entry(key).or_insert_with(|| {
                let path_start = path_arena.len() as u32;
                self.torus.route_into(s.src, s.dst, &mut path_arena);
                let path_len = path_arena.len() as u32 - path_start;
                flows.push(FlowState {
                    members: Vec::new(),
                    path_start,
                    path_len,
                    remaining: 0.0,
                    rate: 0.0,
                    start: s.start,
                    hops: path_len as usize,
                    weight: 0.0,
                });
                flows.len() - 1
            });
            flows[idx].members.push(i as u32);
            flows[idx].remaining += s.bytes as f64;
            flows[idx].weight += 1.0;
        }
        (flows, path_arena, network_bytes)
    }

    /// [`run`](Self::run) with span tracing in **simulated time**: every
    /// participating node's track gets one `net.phase` span covering its
    /// activity window (timestamps are simulated microseconds), and each
    /// flow's completion becomes a `flow.done` instant on its source
    /// node's track carrying the destination and payload bytes. Use a
    /// manual tracer ([`pvr_obs::Tracer::manual`]); a disabled tracer
    /// makes this identical to the plain call.
    pub fn run_traced(&self, specs: &[FlowSpec], tracer: &pvr_obs::Tracer) -> SimReport {
        let report = self.run(specs);
        if !tracer.enabled() {
            return report;
        }
        let us = |t: f64| (t * 1e6).round() as u64;
        // Per-node activity window: earliest start to latest completion
        // among flows the node sends or receives.
        let mut window = std::collections::BTreeMap::<usize, (u64, u64)>::new();
        for (s, &done) in specs.iter().zip(&report.completion) {
            let (t0, t1) = (us(s.start), us(done));
            for node in [s.src, s.dst] {
                let w = window.entry(node).or_insert((t0, t1));
                w.0 = w.0.min(t0);
                w.1 = w.1.max(t1);
            }
        }
        for (&node, &(t0, _)) in &window {
            let track = node as pvr_obs::span::TrackId;
            tracer.name_track(track, &format!("node {node}"));
            tracer.begin_at(track, "net.phase", t0, pvr_obs::Args::none());
        }
        for (s, &done) in specs.iter().zip(&report.completion) {
            tracer.instant_at(
                s.src as pvr_obs::span::TrackId,
                "flow.done",
                us(done),
                pvr_obs::Args::two("dst", s.dst as u64, "bytes", s.bytes),
            );
        }
        // Ends are pushed after all instants, so the stable (ts, track)
        // sort keeps each phase span closed after its last flow.
        for (&node, &(_, t1)) in &window {
            tracer.end_at(
                node as pvr_obs::span::TrackId,
                "net.phase",
                t1,
                pvr_obs::Args::none(),
            );
        }
        report
    }

    /// Event-driven fluid integration of the aggregated flows. Returns
    /// the network makespan and fills `completion` for member messages.
    fn run_fluid(
        &self,
        flows: &mut [FlowState],
        path_arena: &[u32],
        completion: &mut [f64],
    ) -> f64 {
        if flows.is_empty() {
            return 0.0;
        }

        // Flows not yet started, in start order.
        let mut pending: Vec<usize> = (0..flows.len()).collect();
        pending.sort_by(|&a, &b| flows[a].start.total_cmp(&flows[b].start));
        let mut next_pending = 0usize;
        let mut active: Vec<usize> = Vec::new();

        let mut fill = Fill::new(
            self.params.link_bw,
            self.torus.num_links(),
            flows,
            path_arena,
        );

        let mut now = flows[pending[0]].start;
        let mut makespan = 0.0f64;
        let eps = 1e-12;

        loop {
            // Admit flows that start now.
            while next_pending < pending.len() && flows[pending[next_pending]].start <= now + eps {
                let f = pending[next_pending];
                active.push(f);
                fill.admit(f, &flows[f], path_arena);
                next_pending += 1;
            }
            if active.is_empty() {
                if next_pending >= pending.len() {
                    break;
                }
                now = flows[pending[next_pending]].start;
                continue;
            }

            // --- Water-fill: recompute max-min fair rates. ---
            fill.solve(flows, path_arena, &active);

            // Time to the next event: earliest completion among active
            // flows, or the next flow start.
            let mut dt = f64::INFINITY;
            for &f in &active {
                let fl = &flows[f];
                if fl.rate > 0.0 {
                    dt = dt.min(fl.remaining / fl.rate);
                }
            }
            if next_pending < pending.len() {
                dt = dt.min(flows[pending[next_pending]].start - now);
            }
            assert!(dt.is_finite(), "flow simulation stalled (all rates zero)");

            // Integrate and retire completed flows (batched: symmetric
            // schedules finish thousands of flows per event; the batch
            // tolerance additionally retires near-finished flows, see
            // SimParams::batch_tolerance).
            now += dt;
            let mut i = 0;
            while i < active.len() {
                let f = active[i];
                flows[f].remaining -= flows[f].rate * dt;
                // Retire exact completions, plus (with a nonzero batch
                // tolerance) flows within `tol * dt` of completing.
                let retire_slack = self.params.batch_tolerance * dt * flows[f].rate;
                if flows[f].remaining <= eps * flows[f].rate.max(1.0) + 1e-6 + retire_slack {
                    let fl = &flows[f];
                    let t_done = now + fl.hops as f64 * self.params.hop_latency;
                    for &m in &fl.members {
                        completion[m as usize] = t_done;
                    }
                    makespan = makespan.max(t_done);
                    fill.retire(f, fl, path_arena);
                    active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if active.is_empty() && next_pending >= pending.len() {
                break;
            }
        }
        debug_assert!(
            fill.is_drained(),
            "a finished phase left active weight on a link or a flow marked active"
        );
        makespan
    }
}

/// The water-filling workspace of one [`FlowSim::run_fluid`] call.
///
/// Progressive filling: every active flow's rate rises uniformly
/// (weighted) until a link saturates; flows crossing saturated links
/// freeze; repeat until all flows are frozen. The allocation is
/// recomputed at every event, so what an event costs is the run's cost.
/// Nothing here is rebuilt per event: the link→flow incidence is laid
/// out once, each link's active weight is kept current by
/// [`admit`](Self::admit) / [`retire`](Self::retire), and every list
/// keeps its capacity. One [`solve`](Self::solve) costs the links that
/// carry active weight, plus `rounds × live links` (a link is live while
/// it still carries an unfrozen flow; it leaves the compact live set when
/// that weight empties), plus the flow lists of the links that saturate.
/// The round sweeps are the cost: two passes over contiguous lanes, no
/// gathers (DESIGN.md §18: 13.2 M live-link visits per pass on `model-512`).
///
/// **Same seconds as a fill built from nothing** (the `#[cfg(test)]`
/// oracle `reference_water_fill` is that fill, and the proptest
/// `workspace_fill_equals_reference_bitwise` compares bits):
///
/// * Weights are message counts — integers far below 2⁵³ — so every
///   `+=`/`-=` on `active_weight` and `w` is exact in any order;
///   `active_weight[l]` always equals the sum over the active flows
///   crossing `l`, and `w[pos[l]]` the sum over the unfrozen ones, so a
///   link's `w` reaches exactly `0.0` when its last unfrozen flow freezes.
/// * The live set in a round does not depend on its order, which
///   swap-removal shuffles, so `delta` — a `min` over that set of
///   positive finite quotients, order-free — is the same, and every
///   link's `rem` goes through the same sequence
///   `link_bw − δ₁w₁ − δ₂w₂ − …`.
/// * All flows frozen in one round get the same `fill * weight`, so the
///   order in which saturated links, or the flows on them, are visited
///   cannot show.
struct Fill {
    /// [`SimParams::link_bw`]: what every link starts a solve with.
    link_bw: f64,

    /// CSR link → aggregated flows whose route crosses it, built once.
    /// Retired flows stay listed and are skipped by `is_active`: on the
    /// `fig3_scaling` sweep the freeze walk, skipped entries included,
    /// is 4 % of the live-link visits, so unlisting them buys nothing.
    link_start: Vec<u32>,
    link_flows: Vec<u32>,

    // Per flow.
    is_active: Vec<bool>,
    /// The `epoch` of the solve that last froze the flow.
    frozen_at: Vec<u32>,
    /// Solve counter; a flow with `frozen_at == epoch` is frozen in the
    /// current solve (a stamp instead of a flag array cleared per event).
    epoch: u32,

    // Per link.
    /// Sum of the weights of the active flows crossing the link.
    active_weight: Vec<f64>,
    /// Whether the link is in `loaded`.
    listed: Vec<bool>,
    /// The link's slot in `live` / `rem` / `w` while it is live.
    pos: Vec<u32>,

    /// Links that may carry active weight: pushed by `admit` on first
    /// use, dropped by the next `solve` that finds the weight back at 0.
    loaded: Vec<u32>,
    /// The live set of the current solve — links with `w > 0` — as three
    /// parallel lanes: link id, remaining capacity, unfrozen weight.
    live: Vec<u32>,
    rem: Vec<f64>,
    w: Vec<f64>,
    /// Links that saturated in the current round.
    saturated: Vec<u32>,
}

impl Fill {
    fn new(link_bw: f64, num_links: usize, flows: &[FlowState], path_arena: &[u32]) -> Self {
        // Counting sort of the (link, flow) incidence by link: link ids
        // are dense in 0..num_links.
        let mut link_start = vec![0u32; num_links + 1];
        for &l in path_arena {
            link_start[l as usize + 1] += 1;
        }
        for l in 0..num_links {
            link_start[l + 1] += link_start[l];
        }
        let mut cursor = link_start.clone();
        let mut link_flows = vec![0u32; path_arena.len()];
        for (f, fl) in flows.iter().enumerate() {
            for &l in fl.path(path_arena) {
                link_flows[cursor[l as usize] as usize] = f as u32;
                cursor[l as usize] += 1;
            }
        }
        Fill {
            link_bw,
            link_start,
            link_flows,
            is_active: vec![false; flows.len()],
            frozen_at: vec![0; flows.len()],
            epoch: 0,
            active_weight: vec![0.0; num_links],
            listed: vec![false; num_links],
            pos: vec![0; num_links],
            loaded: Vec::new(),
            live: Vec::new(),
            rem: Vec::new(),
            w: Vec::new(),
            saturated: Vec::new(),
        }
    }

    /// Flow `f` starts: its weight joins every link of its route.
    fn admit(&mut self, f: usize, fl: &FlowState, path_arena: &[u32]) {
        self.is_active[f] = true;
        for &l in fl.path(path_arena) {
            let l = l as usize;
            if !self.listed[l] {
                self.listed[l] = true;
                self.loaded.push(l as u32);
            }
            self.active_weight[l] += fl.weight;
        }
    }

    /// Flow `f` completed: its weight leaves every link of its route.
    fn retire(&mut self, f: usize, fl: &FlowState, path_arena: &[u32]) {
        self.is_active[f] = false;
        for &l in fl.path(path_arena) {
            self.active_weight[l as usize] -= fl.weight;
        }
    }

    /// True when no flow is active and no link carries active weight —
    /// the state every finished phase must leave behind.
    fn is_drained(&self) -> bool {
        !self.is_active.contains(&true) && self.active_weight.iter().all(|&w| w == 0.0)
    }

    /// Set `rate` of every flow in `active` to its max-min fair share.
    fn solve(&mut self, flows: &mut [FlowState], path_arena: &[u32], active: &[usize]) {
        self.epoch = self
            .epoch
            .checked_add(1)
            .expect("fewer than 2^32 events in one phase");
        let epoch = self.epoch;
        let sat_eps = self.link_bw * 1e-9;

        // Start from the maintained weights; forget links that emptied.
        self.live.clear();
        self.rem.clear();
        self.w.clear();
        self.loaded.retain(|&l| {
            let weight = self.active_weight[l as usize];
            if weight > 0.0 {
                self.pos[l as usize] = self.live.len() as u32;
                self.live.push(l);
                self.rem.push(self.link_bw);
                self.w.push(weight);
            } else {
                self.listed[l as usize] = false;
            }
            weight > 0.0
        });

        let mut unfrozen = active.len();
        let mut fill = 0.0f64;
        while unfrozen > 0 {
            // Smallest per-weight headroom over the live links.
            let delta = min_headroom(&self.rem, &self.w);
            if !delta.is_finite() {
                // No constraining link left; remaining flows are only
                // limited by links that already saturated (degenerate) —
                // freeze them at the current fill.
                for &f in active {
                    if self.frozen_at[f] != epoch {
                        self.frozen_at[f] = epoch;
                        flows[f].rate = fill * flows[f].weight;
                    }
                }
                break;
            }
            fill += delta;
            // Drain every link with round-start weights first, then
            // freeze — freezing mutates weights, which must only affect
            // the next round.
            self.saturated.clear();
            for ((rem, &w), &l) in self.rem.iter_mut().zip(&self.w).zip(&self.live) {
                *rem -= delta * w;
                if *rem <= sat_eps {
                    self.saturated.push(l);
                }
            }
            for &l in &self.saturated {
                let on_link =
                    self.link_start[l as usize] as usize..self.link_start[l as usize + 1] as usize;
                for &f in &self.link_flows[on_link] {
                    let f = f as usize;
                    if !self.is_active[f] || self.frozen_at[f] == epoch {
                        continue;
                    }
                    self.frozen_at[f] = epoch;
                    unfrozen -= 1;
                    let fl = &mut flows[f];
                    fl.rate = fill * fl.weight;
                    for &pl in fl.path(path_arena) {
                        // An unfrozen flow's links all carry its weight,
                        // so they are still live.
                        let slot = self.pos[pl as usize] as usize;
                        debug_assert_eq!(self.live[slot], pl);
                        self.w[slot] -= fl.weight;
                        if self.w[slot] == 0.0 {
                            // Its last unfrozen flow froze: the link
                            // leaves the live set.
                            self.live.swap_remove(slot);
                            self.rem.swap_remove(slot);
                            self.w.swap_remove(slot);
                            if let Some(&moved) = self.live.get(slot) {
                                self.pos[moved as usize] = slot as u32;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `min(rem[i] / w[i])` over the live lanes, `INFINITY` when there are
/// none. Four independent compare-and-select accumulators, not
/// `f64::min`: the same value for every input (no quotient is NaN: `w > 0`
/// and `rem` finite), without `min`'s NaN handling in a loop-carried
/// dependency, and the divisions issue packed.
fn min_headroom(rem: &[f64], w: &[f64]) -> f64 {
    let (rem4, w4) = (rem.chunks_exact(4), w.chunks_exact(4));
    let tail = rem4.remainder().iter().zip(w4.remainder());
    let mut lanes = [f64::INFINITY; 4];
    for (r, w) in rem4.zip(w4) {
        for k in 0..4 {
            let headroom = r[k] / w[k];
            if headroom < lanes[k] {
                lanes[k] = headroom;
            }
        }
    }
    let mut delta = f64::INFINITY;
    for headroom in lanes.into_iter().chain(tail.map(|(r, w)| r / w)) {
        if headroom < delta {
            delta = headroom;
        }
    }
    delta
}

/// The fluid loop and water-fill as they were before the run-scoped
/// [`Fill`] workspace, kept as the oracle: every event builds its
/// link→flow index, weights and scratch from nothing, straight from the
/// list of active flows. Shares only [`FlowSim::aggregate`] with the
/// code under test.
#[cfg(test)]
mod reference {
    use super::*;

    /// `(net_makespan, completion)` of the phase, by the from-scratch loop.
    pub(super) fn run(sim: &FlowSim, specs: &[FlowSpec]) -> (f64, Vec<f64>) {
        let mut completion = vec![0.0f64; specs.len()];
        let (mut flows, path_arena, _) = sim.aggregate(specs, &mut completion);
        let net = run_fluid(sim, &mut flows, &path_arena, &mut completion);
        (net, completion)
    }

    fn run_fluid(
        sim: &FlowSim,
        flows: &mut [FlowState],
        path_arena: &[u32],
        completion: &mut [f64],
    ) -> f64 {
        if flows.is_empty() {
            return 0.0;
        }
        let params = sim.params;
        let mut pending: Vec<usize> = (0..flows.len()).collect();
        pending.sort_by(|&a, &b| flows[a].start.total_cmp(&flows[b].start));
        let mut next_pending = 0usize;
        let mut active: Vec<usize> = Vec::new();

        let mut now = flows[pending[0]].start;
        let mut makespan = 0.0f64;
        let eps = 1e-12;

        loop {
            while next_pending < pending.len() && flows[pending[next_pending]].start <= now + eps {
                active.push(pending[next_pending]);
                next_pending += 1;
            }
            if active.is_empty() {
                if next_pending >= pending.len() {
                    break;
                }
                now = flows[pending[next_pending]].start;
                continue;
            }

            reference_water_fill(&params, sim.torus.num_links(), flows, path_arena, &active);

            let mut dt = f64::INFINITY;
            for &f in &active {
                let fl = &flows[f];
                if fl.rate > 0.0 {
                    dt = dt.min(fl.remaining / fl.rate);
                }
            }
            if next_pending < pending.len() {
                dt = dt.min(flows[pending[next_pending]].start - now);
            }
            assert!(dt.is_finite(), "flow simulation stalled (all rates zero)");

            now += dt;
            let mut i = 0;
            while i < active.len() {
                let f = active[i];
                flows[f].remaining -= flows[f].rate * dt;
                let retire_slack = params.batch_tolerance * dt * flows[f].rate;
                if flows[f].remaining <= eps * flows[f].rate.max(1.0) + 1e-6 + retire_slack {
                    let fl = &flows[f];
                    let t_done = now + fl.hops as f64 * params.hop_latency;
                    for &m in &fl.members {
                        completion[m as usize] = t_done;
                    }
                    makespan = makespan.max(t_done);
                    active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if active.is_empty() && next_pending >= pending.len() {
                break;
            }
        }
        makespan
    }

    /// Progressive filling from nothing: weights summed from the active
    /// flows, a hashed link→slot map, a fresh reverse index, and every
    /// round a pass over all touched links.
    fn reference_water_fill(
        params: &SimParams,
        num_links: usize,
        flows: &mut [FlowState],
        path_arena: &[u32],
        active: &[usize],
    ) {
        let mut rem_cap = vec![0.0f64; num_links];
        let mut unfrozen_weight = vec![0.0f64; num_links];
        let mut touched: Vec<u32> = Vec::new();
        for &f in active {
            let fl = &flows[f];
            for &l in fl.path(path_arena) {
                if unfrozen_weight[l as usize] == 0.0 && rem_cap[l as usize] == 0.0 {
                    touched.push(l);
                    rem_cap[l as usize] = params.link_bw;
                }
                unfrozen_weight[l as usize] += fl.weight;
            }
        }

        let mut link_slot = std::collections::HashMap::<u32, u32>::with_capacity(touched.len());
        for (i, &l) in touched.iter().enumerate() {
            link_slot.insert(l, i as u32);
        }
        let mut counts = vec![0u32; touched.len()];
        for &f in active {
            for &l in flows[f].path(path_arena) {
                counts[link_slot[&l] as usize] += 1;
            }
        }
        let mut offsets = vec![0u32; touched.len() + 1];
        for i in 0..touched.len() {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut index = vec![0u32; offsets[touched.len()] as usize];
        let mut cursor = offsets.clone();
        for (ai, &f) in active.iter().enumerate() {
            for &l in flows[f].path(path_arena) {
                let s = link_slot[&l] as usize;
                index[cursor[s] as usize] = ai as u32;
                cursor[s] += 1;
            }
        }

        let mut frozen = vec![false; active.len()];
        let mut num_frozen = 0usize;
        let mut fill = 0.0f64;
        let sat_eps = params.link_bw * 1e-9;

        while num_frozen < active.len() {
            let mut delta = f64::INFINITY;
            for &l in &touched {
                let w = unfrozen_weight[l as usize];
                if w > 0.0 {
                    delta = delta.min(rem_cap[l as usize] / w);
                }
            }
            if !delta.is_finite() {
                for (ai, &f) in active.iter().enumerate() {
                    if !frozen[ai] {
                        frozen[ai] = true;
                        flows[f].rate = fill * flows[f].weight;
                    }
                }
                break;
            }
            fill += delta;
            let mut saturated: Vec<usize> = Vec::new();
            for (slot, &l) in touched.iter().enumerate() {
                let w = unfrozen_weight[l as usize];
                if w <= 0.0 {
                    continue;
                }
                rem_cap[l as usize] -= delta * w;
                if rem_cap[l as usize] <= sat_eps {
                    saturated.push(slot);
                }
            }
            for slot in saturated {
                for &ai in &index[offsets[slot] as usize..offsets[slot + 1] as usize] {
                    let ai = ai as usize;
                    if frozen[ai] {
                        continue;
                    }
                    frozen[ai] = true;
                    num_frozen += 1;
                    let f = active[ai];
                    flows[f].rate = fill * flows[f].weight;
                    let fl = &flows[f];
                    for &pl in fl.path(path_arena) {
                        unfrozen_weight[pl as usize] -= fl.weight;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus8() -> Torus {
        Torus::new(8, 8, 8)
    }

    #[test]
    fn single_flow_runs_at_link_rate() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 425_000_000u64; // exactly 1 second at link rate
        let r = sim.run(&[FlowSpec::new(0, 1, bytes)]);
        assert!(
            (r.net_makespan - 1.0).abs() < 1e-3,
            "makespan {}",
            r.net_makespan
        );
        assert_eq!(r.network_bytes, bytes);
    }

    #[test]
    fn two_flows_share_a_link() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        // Both flows traverse link 0->1 (+x): each gets half rate.
        let bytes = 42_500_000u64; // 0.1 s alone
        let specs = [
            FlowSpec::new(0, 1, bytes),
            FlowSpec::new(0, 2, bytes), // routes 0->1->2 in +x
        ];
        let r = sim.run(&specs);
        // First link shared: flow to node 1 takes ~0.2 s.
        assert!(
            (r.completion[0] - 0.2).abs() < 1e-3,
            "completion {}",
            r.completion[0]
        );
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 42_500_000u64;
        let specs = [
            FlowSpec::new(0, 1, bytes),
            FlowSpec::new(16, 17, bytes),
            FlowSpec::new(32, 33, bytes),
        ];
        let r = sim.run(&specs);
        for c in &r.completion {
            assert!((c - 0.1).abs() < 1e-3);
        }
    }

    #[test]
    fn incast_serializes_on_ejection() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        // 4 senders, one receiver: sharing happens on the receiver's
        // incoming links; senders on the same ring direction share.
        let bytes = 42_500_000u64;
        let specs = [
            FlowSpec::new(1, 0, bytes),  // arrives -x
            FlowSpec::new(2, 0, bytes),  // arrives -x (same last link)
            FlowSpec::new(8, 0, bytes),  // arrives -y
            FlowSpec::new(64, 0, bytes), // arrives -z
        ];
        let r = sim.run(&specs);
        // Flows from 1 and 2 share the 1->0 link: ~0.2 s.
        assert!(r.completion[0] > 0.19 && r.completion[0] < 0.21);
        // The -y and -z arrivals are uncontended: ~0.1 s.
        assert!((r.completion[2] - 0.1).abs() < 1e-2);
        assert!((r.completion[3] - 0.1).abs() < 1e-2);
    }

    #[test]
    fn small_messages_are_overhead_dominated() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        // 64 tiny messages into one node: CPU overhead dominates.
        let specs: Vec<FlowSpec> = (1..65).map(|s| FlowSpec::new(s % 512, 0, 312)).collect();
        let r = sim.run(&specs);
        assert!(r.cpu_makespan >= 64.0 * consts::MSG_OVERHEAD * 0.99);
        let bw = r.effective_bandwidth();
        // Far below link rate.
        assert!(bw < 0.5 * consts::TORUS_LINK_BW, "bw {bw}");
    }

    #[test]
    fn large_messages_approach_peak() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 4_000_000u64;
        let r = sim.run(&[FlowSpec::new(0, 3, bytes)]);
        let bw = r.effective_bandwidth();
        assert!(bw > 0.95 * consts::TORUS_LINK_BW, "bw {bw}");
    }

    #[test]
    fn same_node_flows_cost_only_overhead() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let r = sim.run(&[FlowSpec::new(5, 5, 1 << 20)]);
        assert_eq!(r.network_bytes, 0);
        assert!(r.completion[0] <= 2.0 * consts::MSG_OVERHEAD);
    }

    #[test]
    fn staggered_starts_are_respected() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 42_500_000u64; // 0.1 s alone
        let specs = [
            FlowSpec {
                src: 0,
                dst: 1,
                bytes,
                start: 0.0,
            },
            FlowSpec {
                src: 0,
                dst: 1,
                bytes,
                start: 0.5,
            },
        ];
        let r = sim.run(&specs);
        assert!((r.completion[0] - 0.1).abs() < 1e-3);
        assert!((r.completion[1] - 0.6).abs() < 1e-3);
    }

    #[test]
    fn aggregation_matches_weighted_sharing() {
        // k identical flows through a shared bottleneck should behave
        // like k fair shares, not one.
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 42_500_000u64;
        // Two identical flows 0->2 (aggregated, weight 2) plus one 0->1.
        // The 0->1 link carries weight 3 total; the single flow gets 1/3.
        let specs = [
            FlowSpec::new(0, 2, bytes),
            FlowSpec::new(0, 2, bytes),
            FlowSpec::new(0, 1, bytes),
        ];
        let r = sim.run(&specs);
        assert!(
            (r.completion[2] - 0.3).abs() < 2e-2,
            "got {}",
            r.completion[2]
        );
    }

    #[test]
    fn traced_run_exports_a_valid_simulated_timeline() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let bytes = 42_500_000u64;
        let specs = [
            FlowSpec::new(0, 1, bytes),
            FlowSpec::new(0, 2, bytes),
            FlowSpec::new(8, 0, bytes),
        ];
        let tracer = pvr_obs::Tracer::manual();
        let plain = sim.run(&specs);
        let r = sim.run_traced(&specs, &tracer);
        assert_eq!(r.completion, plain.completion, "tracing must not perturb");
        let profile = tracer.finish();
        // One flow.done instant per spec, on the source's track.
        let dones: Vec<_> = profile
            .events
            .iter()
            .filter(|e| e.name == "flow.done")
            .collect();
        assert_eq!(dones.len(), specs.len());
        // The exported timeline passes Perfetto schema validation.
        let json = pvr_obs::perfetto::to_json(&profile);
        pvr_obs::perfetto::validate(&json).expect("valid trace");
        // Simulated µs, not wall clock: the shared-link flow ends ~0.2 s in.
        assert!(profile.end_ts() >= 190_000, "end {}", profile.end_ts());
    }

    #[test]
    fn peak_bandwidth_curve_shape() {
        let p = SimParams::default();
        let small = peak_bandwidth(256, &p);
        let large = peak_bandwidth(1 << 20, &p);
        assert!(large > 0.95 * p.link_bw);
        assert!(small < 0.25 * p.link_bw);
    }

    #[test]
    fn makespan_never_below_link_load_bound() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let specs: Vec<FlowSpec> = (0..64)
            .map(|i| FlowSpec::new(i * 3 % 512, (i * 7 + 11) % 512, 50_000 + (i as u64) * 977))
            .filter(|f| f.src != f.dst)
            .collect();
        let lower = sim.max_link_time(&specs);
        let r = sim.run(&specs);
        assert!(
            r.net_makespan >= lower * 0.999,
            "{} < {lower}",
            r.net_makespan
        );
    }

    #[test]
    fn conservation_of_bytes() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let specs: Vec<FlowSpec> = (0..32)
            .map(|i| FlowSpec::new(i, (i * 37 + 5) % 512, 1000 * (i as u64 + 1)))
            .collect();
        let r = sim.run(&specs);
        let expect: u64 = specs.iter().map(|s| s.bytes).sum();
        assert_eq!(r.total_bytes, expect);
        assert_eq!(r.messages, 32);
        // Every flow finished.
        for (i, c) in r.completion.iter().enumerate() {
            assert!(*c > 0.0, "flow {i} never completed");
        }
    }
    fn spec_starting_at(start: f64) -> FlowSpec {
        FlowSpec {
            start,
            ..FlowSpec::new(0, 1, 1000)
        }
    }

    #[test]
    #[should_panic(expected = "flow spec 1: start NaN")]
    fn nan_start_is_rejected() {
        let t = torus8();
        FlowSim::new(&t).run(&[FlowSpec::new(0, 1, 1000), spec_starting_at(f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "flow spec 0: start -1")]
    fn negative_start_is_rejected() {
        let t = torus8();
        FlowSim::new(&t).run(&[spec_starting_at(-1.0)]);
    }

    #[test]
    #[should_panic(expected = "flow spec 0: start inf")]
    fn infinite_start_is_rejected() {
        let t = torus8();
        FlowSim::new(&t).max_link_time(&[spec_starting_at(f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "flow spec 2: dst node 512 out of range")]
    fn out_of_range_node_is_rejected() {
        let t = torus8();
        FlowSim::new(&t).run(&[
            FlowSpec::new(0, 1, 1000),
            FlowSpec::new(511, 0, 1000),
            FlowSpec::new(3, 512, 1000),
        ]);
    }

    /// A staggered schedule — links gain weight, lose all of it, and gain
    /// it again mid-phase — leaves the workspace drained. `run_fluid`
    /// asserts that on exit in debug builds; this runs it there and also
    /// checks the bookkeeping directly after admitting and retiring.
    #[test]
    fn staggered_phase_leaves_the_workspace_drained() {
        let t = Torus::new(4, 4, 4);
        let sim = FlowSim::new(&t);
        let specs: Vec<FlowSpec> = (0..96)
            .map(|i| FlowSpec {
                src: (i * 5) % 64,
                dst: if i % 3 == 0 { 7 } else { (i * 11 + 3) % 64 },
                bytes: 2_000 + 37 * i as u64,
                start: (i % 4) as f64 * 1e-3,
            })
            .collect();
        let r = sim.run(&specs);
        assert!(r.completion.iter().all(|&c| c > 0.0));

        let mut completion = vec![0.0; specs.len()];
        let (flows, arena, _) = sim.aggregate(&specs, &mut completion);
        let mut fill = Fill::new(sim.params().link_bw, t.num_links(), &flows, &arena);
        assert!(fill.is_drained());
        for (f, fl) in flows.iter().enumerate() {
            fill.admit(f, fl, &arena);
        }
        assert!(!fill.is_drained());
        let carried: f64 = fill.active_weight.iter().sum();
        let expected: f64 = flows.iter().map(|fl| fl.weight * fl.path_len as f64).sum();
        assert_eq!(carried, expected);
        for (f, fl) in flows.iter().enumerate().rev() {
            fill.retire(f, fl, &arena);
        }
        assert!(fill.is_drained());
    }

    /// A hand-built phase for the live set's removal path, which the
    /// random tori reach only by chance. On the x ring, link 1→2 carries
    /// weight 3 (a weight-2 flow 1→2 and the flow 0→2) and saturates
    /// first: freezing 0→2 empties it from slot 0 — the swap moves link
    /// 0→1 there — and only lowers 0→1, which still carries 0→1. A
    /// mirror group on the y ring empties in the same round, while a
    /// lone four-hop flow's links drain on, and late starts bring link
    /// 1→2 back after it emptied.
    #[test]
    fn emptied_links_leave_the_live_set_bitwise() {
        let t = torus8();
        let sim = FlowSim::new(&t);
        let at = |src, dst, start| FlowSpec {
            start,
            ..FlowSpec::new(src, dst, 42_500_000)
        };
        let specs = [
            at(1, 2, 0.0),
            at(1, 2, 0.0),
            at(0, 2, 0.0),
            at(0, 1, 0.0),
            at(16, 24, 0.0),
            at(16, 24, 0.0),
            at(8, 24, 0.0),
            at(8, 16, 0.0),
            at(32, 36, 0.0),
            at(1, 2, 0.05),
            at(1, 2, 0.5),
        ];
        let r = sim.run(&specs);
        let (net, completion) = reference::run(&sim, &specs);
        assert_eq!(r.net_makespan.to_bits(), net.to_bits());
        for (i, (a, b)) in r.completion.iter().zip(&completion).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "completion[{i}]: {a} vs {b}");
        }

        // The first solve's rates: thirds on the saturated links, the
        // rest of 0→1 for the flow left on it, the lone flow at full rate.
        let mut scratch = vec![0.0; specs.len()];
        let (mut flows, arena, _) = sim.aggregate(&specs, &mut scratch);
        let mut fill = Fill::new(sim.params().link_bw, t.num_links(), &flows, &arena);
        let first: Vec<usize> = (0..flows.len())
            .filter(|&f| flows[f].start == 0.0)
            .collect();
        for &f in &first {
            fill.admit(f, &flows[f], &arena);
        }
        fill.solve(&mut flows, &arena, &first);
        let bw = sim.params().link_bw;
        let rates: Vec<f64> = first.iter().map(|&f| flows[f].rate / bw).collect();
        let expected = [2, 1, 2, 2, 1, 2, 3].map(|thirds| thirds as f64 / 3.0);
        for (got, want) in rates.iter().zip(expected) {
            assert!((got - want).abs() < 1e-9, "rates {rates:?}");
        }
        assert!(fill.live.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::topology::Torus;
    use proptest::prelude::*;

    fn arb_specs() -> impl Strategy<Value = Vec<FlowSpec>> {
        proptest::collection::vec((0usize..64, 0usize..64, 1u64..1_000_000, 0u64..3), 1..40)
            .prop_map(|v| {
                v.into_iter()
                    .map(|(s, d, b, st)| FlowSpec {
                        src: s,
                        dst: d,
                        bytes: b,
                        start: st as f64 * 1e-3,
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every flow completes, after its start, and the makespan is
        /// the maximum completion; aggregate bytes are conserved.
        #[test]
        fn every_flow_completes(specs in arb_specs()) {
            let t = Torus::new(4, 4, 4);
            let sim = FlowSim::new(&t);
            let r = sim.run(&specs);
            prop_assert_eq!(r.messages, specs.len());
            let mut max_c = 0.0f64;
            for (i, s) in specs.iter().enumerate() {
                prop_assert!(r.completion[i] > s.start, "flow {i} finished before start");
                max_c = max_c.max(r.completion[i]);
            }
            let expect: u64 = specs.iter().map(|s| s.bytes).sum();
            prop_assert_eq!(r.total_bytes, expect);
            // Makespan covers the network part of every completion.
            prop_assert!(r.makespan >= r.net_makespan * 0.999);
        }

        /// No flow beats its uncontended lower bound (bytes/link_bw).
        #[test]
        fn no_flow_exceeds_link_rate(specs in arb_specs()) {
            let t = Torus::new(4, 4, 4);
            let sim = FlowSim::new(&t);
            let r = sim.run(&specs);
            for (i, s) in specs.iter().enumerate() {
                if s.src != s.dst {
                    let min_time = s.bytes as f64 / sim.params().link_bw;
                    prop_assert!(
                        r.completion[i] - s.start >= min_time * 0.999,
                        "flow {} finished faster than the link allows", i
                    );
                }
            }
        }

        /// Adding a flow never makes the phase finish earlier.
        #[test]
        fn adding_load_is_monotone(specs in arb_specs(), extra in (0usize..64, 0usize..64, 1u64..500_000)) {
            let t = Torus::new(4, 4, 4);
            let sim = FlowSim::new(&t);
            let base = sim.run(&specs).net_makespan;
            let mut more = specs.clone();
            more.push(FlowSpec::new(extra.0, extra.1, extra.2));
            let bigger = sim.run(&more).net_makespan;
            prop_assert!(bigger >= base * 0.999, "makespan shrank: {base} -> {bigger}");
        }
    }
    /// Phases that exercise the workspace's bookkeeping: incast hot
    /// spots, zero-byte, sub-64-byte and 10 %-grid sizes, intra-node
    /// flows, and starts staggered far enough apart that links go
    /// 0 → positive → 0 → positive while the phase runs.
    fn arb_phase() -> impl Strategy<Value = ((u16, u16, u16), f64, Vec<FlowSpec>)> {
        (
            0usize..3,
            0usize..2,
            proptest::collection::vec(
                (
                    0usize..512,
                    0usize..512,
                    0usize..4,
                    0u64..1_000_000,
                    0u64..4,
                ),
                1..160,
            ),
        )
            .prop_map(|(shape, tol, draws)| {
                let dims = [(2, 2, 2), (4, 4, 4), (8, 4, 4)][shape];
                let nodes = dims.0 as usize * dims.1 as usize * dims.2 as usize;
                let specs = draws
                    .into_iter()
                    .map(|(a, b, kind, size, slot)| FlowSpec {
                        src: a % nodes,
                        // One draw in four aims at the hot receiver.
                        dst: if b % 4 == 0 { 1 } else { b % nodes },
                        bytes: match kind {
                            0 => 0,
                            1 => size % 64,
                            2 => 1.1f64.powi((size % 150) as i32) as u64,
                            _ => size,
                        },
                        start: slot as f64 * 1e-3,
                    })
                    .collect();
                (dims, [0.0, 0.03][tol], specs)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The run-scoped workspace and the from-scratch fill give the
        /// same simulated seconds, to the bit.
        #[test]
        fn workspace_fill_equals_reference_bitwise(phase in arb_phase()) {
            let ((nx, ny, nz), batch_tolerance, specs) = phase;
            let t = Torus::new(nx, ny, nz);
            let sim = FlowSim::with_params(&t, SimParams { batch_tolerance, ..Default::default() });
            let r = sim.run(&specs);
            let (net, completion) = reference::run(&sim, &specs);
            prop_assert_eq!(r.net_makespan.to_bits(), net.to_bits());
            for (i, (a, b)) in r.completion.iter().zip(&completion).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "completion[{}]: {} vs {}", i, a, b);
            }
        }
    }
}
