//! Inline event storage for the DES hot path.
//!
//! The engine used to box every handler (`Box<dyn FnOnce>`), which put a
//! heap allocation and a pointer chase on the critical path of every
//! scheduled event. The overwhelming majority of handlers in this
//! workspace capture at most three machine words — reschedule ticks
//! (zero-capture `fn` items), M/G/k arrivals, completion-slot indices,
//! control-step markers — so `EventCell` stores such closures *inline*
//! in the queue node and only falls back to a heap cell for large
//! captures. The boxed fallback recycles its allocations through
//! `BoxPool`, so even large-capture workloads stop hitting the global
//! allocator once the pool is warm.
//!
//! Safety model: an `EventCell` is a small `union`-style payload plus a
//! per-closure-type vtable (`call`, `drop_in_place`) promoted to
//! `'static`, keeping the cell at four machine words. The cell is
//! consumed exactly once, either by `EventCell::invoke` (which reads
//! the closure out and runs it) or by `Drop` (which drops the closure in
//! place without running it — the `Engine::clear` path). The
//! inline/boxed decision is made from `size_of`/`align_of` constants, so
//! each monomorphization compiles down to a single branch-free path.

use crate::engine::Engine;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};
use std::ptr;

/// Number of machine words a closure may capture and still be stored
/// inline in the queue node.
pub const INLINE_EVENT_WORDS: usize = 3;

type Payload = [MaybeUninit<usize>; INLINE_EVENT_WORDS];

/// `true` if closures of type `F` ride the inline (allocation-free) path.
pub(crate) const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<Payload>() && align_of::<F>() <= align_of::<Payload>()
}

/// The two operations a stored closure supports, monomorphized per
/// concrete closure type and shared by every cell holding that type.
struct EventVtable<S: 'static> {
    /// Consumes the payload and runs the closure. The boxed variant
    /// returns its heap cell to the engine's [`BoxPool`] *before* the
    /// closure runs, so a handler that schedules another large event can
    /// reuse the memory immediately.
    call: unsafe fn(*mut Payload, &mut S, &mut Engine<S>),
    /// Drops the closure without running it (event discarded by
    /// `Engine::clear` or engine teardown).
    drop_in_place: unsafe fn(*mut Payload),
}

/// One schedulable event handler, stored inline when its captures fit in
/// [`INLINE_EVENT_WORDS`] machine words and in a pooled heap cell
/// otherwise.
pub(crate) struct EventCell<S: 'static> {
    vtable: &'static EventVtable<S>,
    payload: Payload,
}

unsafe fn call_inline<S, F: FnOnce(&mut S, &mut Engine<S>)>(
    p: *mut Payload,
    state: &mut S,
    engine: &mut Engine<S>,
) {
    let f = ptr::read(p as *mut F);
    f(state, engine)
}

unsafe fn drop_inline<F>(p: *mut Payload) {
    ptr::drop_in_place(p as *mut F)
}

unsafe fn call_boxed<S: 'static, F: FnOnce(&mut S, &mut Engine<S>)>(
    p: *mut Payload,
    state: &mut S,
    engine: &mut Engine<S>,
) {
    let raw = ptr::read(p as *mut *mut F);
    let f = ptr::read(raw);
    // The closure is now owned by value; hand the empty cell back to the
    // pool before running it so follow-up schedules can reuse it.
    engine.recycle_event_box(raw as *mut u8, Layout::new::<F>());
    f(state, engine)
}

unsafe fn drop_boxed<F>(p: *mut Payload) {
    let raw = ptr::read(p as *mut *mut F);
    ptr::drop_in_place(raw);
    dealloc(raw as *mut u8, Layout::new::<F>());
}

impl<S: 'static> EventCell<S> {
    /// Wraps `f`, storing it inline when it fits and in a (pooled) heap
    /// cell otherwise. The returned flag is `true` when the boxed
    /// fallback was taken (the engine counts those for observability).
    pub(crate) fn new<F>(f: F, pool: &mut BoxPool) -> (Self, bool)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        let mut payload: Payload = [MaybeUninit::uninit(); INLINE_EVENT_WORDS];
        if fits_inline::<F>() {
            // SAFETY: size and alignment were just checked; the payload
            // owns the closure until `invoke` or `drop` consumes it.
            unsafe { ptr::write(&mut payload as *mut Payload as *mut F, f) };
            let cell = EventCell {
                // Rvalue static promotion: both fields are constants.
                vtable: &EventVtable {
                    call: call_inline::<S, F>,
                    drop_in_place: drop_inline::<F>,
                },
                payload,
            };
            (cell, false)
        } else {
            let layout = Layout::new::<F>();
            let raw = pool.take(layout).unwrap_or_else(|| {
                // SAFETY: `F` is larger than the inline payload, so the
                // layout is never zero-sized.
                let p = unsafe { alloc(layout) };
                if p.is_null() {
                    handle_alloc_error(layout);
                }
                p
            }) as *mut F;
            // SAFETY: `raw` is a fresh (or recycled) allocation with `F`'s
            // exact layout; the thin pointer always fits one payload word.
            unsafe {
                ptr::write(raw, f);
                ptr::write(&mut payload as *mut Payload as *mut *mut F, raw);
            }
            let cell = EventCell {
                vtable: &EventVtable {
                    call: call_boxed::<S, F>,
                    drop_in_place: drop_boxed::<F>,
                },
                payload,
            };
            (cell, true)
        }
    }

    /// Consumes the cell and runs the stored closure.
    pub(crate) fn invoke(self, state: &mut S, engine: &mut Engine<S>) {
        let mut cell = ManuallyDrop::new(self);
        // SAFETY: the payload holds a live closure (cells are consumed
        // exactly once) and `ManuallyDrop` prevents the destructor from
        // double-dropping it, including when the closure panics.
        unsafe { (cell.vtable.call)(&mut cell.payload, state, engine) }
    }
}

impl<S: 'static> Drop for EventCell<S> {
    fn drop(&mut self) {
        // SAFETY: `invoke` shields itself with `ManuallyDrop`, so a cell
        // reaching `Drop` still owns an un-run closure.
        unsafe { (self.vtable.drop_in_place)(&mut self.payload) }
    }
}

/// A free-list of heap cells for the boxed event path.
///
/// Cells are keyed by exact [`Layout`]; a simulation that schedules large
/// closures typically schedules a handful of distinct closure types over
/// and over, so an exact-match linear scan over a small pool hits almost
/// always. The pool is bounded — beyond [`BoxPool::MAX_CHUNKS`] retired
/// cells are simply freed.
pub(crate) struct BoxPool {
    chunks: Vec<(*mut u8, Layout)>,
}

impl BoxPool {
    const MAX_CHUNKS: usize = 64;

    pub(crate) fn new() -> Self {
        BoxPool { chunks: Vec::new() }
    }

    /// Takes a recycled cell with exactly `layout`, if one is pooled.
    fn take(&mut self, layout: Layout) -> Option<*mut u8> {
        let pos = self.chunks.iter().position(|&(_, l)| l == layout)?;
        Some(self.chunks.swap_remove(pos).0)
    }

    /// Returns a no-longer-needed cell to the pool (or frees it when the
    /// pool is full).
    pub(crate) fn recycle(&mut self, ptr: *mut u8, layout: Layout) {
        if self.chunks.len() < Self::MAX_CHUNKS {
            self.chunks.push((ptr, layout));
        } else {
            // SAFETY: `ptr` was allocated with exactly `layout` by
            // `EventCell::new` and is not referenced anywhere else.
            unsafe { dealloc(ptr, layout) };
        }
    }

    /// Number of pooled cells (test observability).
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.chunks.len()
    }
}

impl Drop for BoxPool {
    fn drop(&mut self) {
        for &(ptr, layout) in &self.chunks {
            // SAFETY: every pooled chunk was allocated with its recorded
            // layout and ownership passed to the pool on recycle.
            unsafe { dealloc(ptr, layout) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn small_captures_are_inline_and_large_are_boxed() {
        let mut pool = BoxPool::new();
        let x = 7u64;
        let (small, small_boxed) = EventCell::<u64>::new(move |s, _| *s += x, &mut pool);
        assert!(!small_boxed);
        let big = [1u64; 8];
        let (large, large_boxed) =
            EventCell::<u64>::new(move |s, _| *s += big.iter().sum::<u64>(), &mut pool);
        assert!(large_boxed);
        let mut engine: Engine<u64> = Engine::new();
        let mut state = 0u64;
        small.invoke(&mut state, &mut engine);
        large.invoke(&mut state, &mut engine);
        assert_eq!(state, 15);
    }

    #[test]
    fn overaligned_captures_fall_back_to_boxed() {
        #[repr(align(32))]
        #[derive(Clone, Copy)]
        struct Wide(u8);
        let mut pool = BoxPool::new();
        let w = Wide(3);
        let (cell, boxed) = EventCell::<u64>::new(
            move |s, _| {
                let wide = w;
                *s += wide.0 as u64;
            },
            &mut pool,
        );
        assert!(boxed);
        let mut engine: Engine<u64> = Engine::new();
        let mut state = 0u64;
        cell.invoke(&mut state, &mut engine);
        assert_eq!(state, 3);
    }

    #[test]
    fn dropping_unrun_cells_drops_captures() {
        let hits = Rc::new(Cell::new(0u32));
        struct Guard(Rc<Cell<u32>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let mut pool = BoxPool::new();
        let small_guard = Guard(Rc::clone(&hits));
        let (small, small_boxed) = EventCell::<u64>::new(move |_, _| drop(small_guard), &mut pool);
        let large_guard = Guard(Rc::clone(&hits));
        let padding = [0u64; 8];
        let (large, large_boxed) = EventCell::<u64>::new(
            move |_, _| {
                drop(large_guard);
                let _moved = padding;
            },
            &mut pool,
        );
        assert!(!small_boxed);
        assert!(large_boxed);
        drop(small);
        drop(large);
        assert_eq!(hits.get(), 2, "both captures dropped without running");
    }

    #[test]
    fn boxed_cells_recycle_through_the_pool() {
        let mut engine: Engine<u64> = Engine::new();
        // Schedule and run a large-capture event; its cell should land in
        // the pool and be reused by the next one.
        let big = [9u64; 8];
        engine.schedule(SimTime::ZERO, move |s: &mut u64, _: &mut Engine<u64>| {
            *s += big[0]
        });
        let mut state = 0u64;
        engine.run(&mut state);
        assert_eq!(state, 9);
        assert_eq!(engine.debug_pooled_event_boxes(), 1);
        engine.schedule(engine.now(), move |s: &mut u64, _: &mut Engine<u64>| {
            *s += big[1]
        });
        assert_eq!(
            engine.debug_pooled_event_boxes(),
            0,
            "second large event reuses the pooled cell"
        );
        engine.run(&mut state);
        assert_eq!(state, 18);
    }

    #[test]
    fn zero_sized_handlers_are_inline() {
        fn bump(s: &mut u64, _: &mut Engine<u64>) {
            *s += 1;
        }
        let mut pool = BoxPool::new();
        let (cell, boxed) = EventCell::<u64>::new(bump, &mut pool);
        assert!(!boxed);
        let mut engine: Engine<u64> = Engine::new();
        let mut state = 0u64;
        cell.invoke(&mut state, &mut engine);
        assert_eq!(state, 1);
    }
}
