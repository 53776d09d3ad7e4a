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
}

fn count(size: usize) {
    COUNTED.with(|c| {
        let (calls, bytes) = c.get();
        c.set((calls + 1, bytes + size as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is the caller's; counting touches one
// thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocated on this thread: its result, the allocator calls
/// and the bytes they asked for.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = COUNTED.get();
    let out = f();
    let after = COUNTED.get();
    (out, after.0 - before.0, after.1 - before.1)
}
