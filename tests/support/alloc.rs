//! A counting allocator for the allocation-budget tests (`mod alloc;`
//! via `#[path]`, in the binaries that want their heap traffic counted).
//!
//! Counts are per thread: a message-passing frame on the event core runs
//! every rank on the calling thread, so a test reads what its own frame
//! allocated however many sibling tests run beside it.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

thread_local! {
    /// `(calls, bytes)` of `alloc`, `alloc_zeroed` and `realloc` on this
    /// thread. Const-initialized and without a destructor, so the
    /// allocator can reach it at any point of a thread's life without
    /// allocating.
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The largest single `alloc`, `alloc_zeroed` or `realloc` on this
    /// thread, in bytes, since [`largest`] last reset it.
    static LARGEST: Cell<u64> = const { Cell::new(0) };
    /// `(live, high water)`: bytes allocated and not yet freed on this
    /// thread, and the most `live` has been since [`peak_live`] last
    /// reset it. Signed: a block freed on another thread than the one
    /// that allocated it moves each thread's count the other way.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count(size: usize) {
    COUNTED.with(|c| {
        let (calls, bytes) = c.get();
        c.set((calls + 1, bytes + size as u64));
    });
    LARGEST.with(|l| l.set(l.get().max(size as u64)));
}

/// Move this thread's live bytes by `delta`, raising the high water.
fn live(delta: i64) {
    LIVE.with(|l| {
        let (now, high) = l.get();
        let now = now + delta;
        l.set((now, high.max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the caller's; counting touches
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's layout, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64);
        // SAFETY: the caller's layout, forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocated on this thread: its result, the allocator calls
/// and the bytes they asked for.
#[allow(dead_code)]
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = COUNTED.get();
    let out = f();
    let after = COUNTED.get();
    (out, after.0 - before.0, after.1 - before.1)
}

/// What `f` returned and the largest single allocation it asked for on
/// this thread, in bytes.
#[allow(dead_code)]
pub fn largest<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LARGEST.replace(0);
    let out = f();
    let largest = LARGEST.get();
    LARGEST.set(before.max(largest));
    (out, largest)
}

/// What `f` returned and the most bytes it held allocated at once on
/// this thread, above what was live when it started.
#[allow(dead_code)]
pub fn peak_live<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (start, outer_high) = LIVE.get();
    LIVE.set((start, start));
    let out = f();
    let (now, high) = LIVE.get();
    LIVE.set((now, outer_high.max(high)));
    (out, (high - start).max(0) as u64)
}
