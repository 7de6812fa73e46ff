//! Heap accounting for the memory metric.
//!
//! The benchmark's global allocator forwards to the system allocator and,
//! on a thread inside [`peak_during`], keeps a count of the bytes that
//! thread has live since the call started and their maximum. Elsewhere
//! each call costs one thread-local load, so the timed passes are not
//! slowed. The figure is the program's own: memory the harness allocated
//! before the call, or on other threads, is not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting inside [`peak_during`].
pub struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn counting() -> bool {
    ON.try_with(Cell::get).unwrap_or(false)
}

fn grew(bytes: usize) {
    let now = LIVE.get() + bytes as isize;
    LIVE.set(now);
    PEAK.set(PEAK.get().max(now));
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get() - bytes as isize);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            grew(layout.size());
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            shrank(layout.size());
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Runs `f` and returns its result with the peak number of heap bytes
/// the calling thread had live at once during the call, counted from zero
/// at its start.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LIVE.set(0);
    PEAK.set(0);
    ON.set(true);
    let r = f();
    ON.set(false);
    (r, PEAK.get().max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_the_largest_live_set() {
        let ((), peak) = peak_during(|| {
            let a = vec![0u8; 1 << 20];
            drop(a);
            let b = vec![0u8; 1 << 10];
            std::hint::black_box(&b);
        });
        assert!(peak >= 1 << 20, "{peak}");
        assert!(peak < (1 << 20) + (1 << 16), "{peak}");
    }
}
