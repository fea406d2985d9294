//! The discrete-event simulation engine.
//!
//! [`Engine<S>`] holds a deterministic two-tier calendar queue (the
//! private `calendar` module) of timestamped events over a user-supplied
//! state type `S`. Handlers are `FnOnce(&mut S, &mut Engine<S>)` closures
//! stored *inline* in the queue node when their captures fit in
//! [`crate::event::INLINE_EVENT_WORDS`] machine words — the common path
//! (reschedule ticks, arrivals, control steps) touches the heap zero
//! times per event; larger captures fall back to a recycled heap cell.
//! Ties at the same instant are broken by insertion order, which keeps
//! runs deterministic — a requirement for the paper's policy comparisons,
//! where the baseline and the overclocking auto-scalers must see
//! identical arrival sequences.

use crate::calendar::{CalendarQueue, Entry};
use crate::event::{BoxPool, EventCell};
use crate::observe::{EngineObserver, EventRecord};
use crate::time::{SimDuration, SimTime};
use std::alloc::Layout;
use std::fmt;

/// The label given to events scheduled without an explicit kind.
pub const UNLABELED_EVENT: &str = "event";

/// A deterministic discrete-event simulator over state `S`.
///
/// # Example
///
/// ```
/// use ic_sim::engine::Engine;
/// use ic_sim::time::{SimDuration, SimTime};
///
/// // A self-rescheduling heartbeat that stops after 3 beats.
/// struct State { beats: u32 }
/// fn beat(s: &mut State, engine: &mut Engine<State>) {
///     s.beats += 1;
///     if s.beats < 3 {
///         engine.schedule_in(SimDuration::from_secs(1), beat);
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, beat);
/// let mut state = State { beats: 0 };
/// engine.run(&mut state);
/// assert_eq!(state.beats, 3);
/// assert_eq!(engine.now(), SimTime::from_secs(2));
/// ```
pub struct Engine<S: 'static> {
    now: SimTime,
    queue: CalendarQueue<S>,
    seq: u64,
    processed: u64,
    boxed_scheduled: u64,
    pool: BoxPool,
    observer: Option<Box<dyn EngineObserver>>,
}

impl<S: 'static> Engine<S> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and no pending
    /// events.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            seq: 0,
            processed: 0,
            boxed_scheduled: 0,
            pool: BoxPool::new(),
            observer: None,
        }
    }

    /// Attaches an observer that receives one
    /// [`EventRecord`] per executed event.
    /// Replaces any previous observer. Observation never changes
    /// simulation behavior — only with an observer attached does the
    /// engine pay for wall-clock timing.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver>) {
        self.observer = Some(observer);
    }

    /// Detaches and returns the current observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn EngineObserver>> {
        self.observer.take()
    }

    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The number of events waiting in the queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// How many scheduled events took the boxed (heap) fallback because
    /// their captures exceeded [`crate::event::INLINE_EVENT_WORDS`]
    /// machine words. Zero means every event so far rode the
    /// allocation-free inline path — the property the workload crates'
    /// hot paths are tested against.
    pub fn boxed_events_scheduled(&self) -> u64 {
        self.boxed_scheduled
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock: the past is
    /// immutable in a discrete-event simulation.
    pub fn schedule<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        self.schedule_labeled(at, UNLABELED_EVENT, event);
    }

    /// Schedules `event` at absolute time `at` under a `kind` label that
    /// observers see in per-event records (e.g. `"arrival"`,
    /// `"control_step"`).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_labeled<F>(&mut self, at: SimTime, kind: &'static str, event: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before current time {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let (cell, boxed) = EventCell::new(event, &mut self.pool);
        self.boxed_scheduled += boxed as u64;
        self.queue.push(Entry {
            at,
            seq,
            kind,
            cell,
        });
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, event: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        self.schedule(self.now + delay, event);
    }

    /// Schedules `event` to fire `delay` after the current instant, under
    /// a `kind` label that observers see in per-event records.
    pub fn schedule_in_labeled<F>(&mut self, delay: SimDuration, kind: &'static str, event: F)
    where
        F: FnOnce(&mut S, &mut Engine<S>) + 'static,
    {
        self.schedule_labeled(self.now + delay, kind, event);
    }

    /// Runs events until the queue is empty. Returns the number of events
    /// executed by this call.
    pub fn run(&mut self, state: &mut S) -> u64 {
        self.run_until(state, SimTime::MAX)
    }

    /// Runs events with timestamps `<= deadline`, advancing the clock to
    /// each event's timestamp and finally to `deadline` (if later than the
    /// last event). Returns the number of events executed by this call.
    ///
    /// The deadline check and the dequeue are a single queue operation
    /// per event (`CalendarQueue::pop_at_most`) — there is no separate
    /// peek-then-pop.
    pub fn run_until(&mut self, state: &mut S, deadline: SimTime) -> u64 {
        let mut executed = 0;
        while let Some(ev) = self.queue.pop_at_most(deadline) {
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;
            let kind = ev.kind;
            let observed = self.notify_event_start();
            ev.cell.invoke(state, self);
            self.processed += 1;
            executed += 1;
            self.notify_observer(kind, observed);
        }
        if deadline != SimTime::MAX && deadline > self.now {
            self.now = deadline;
        }
        executed
    }

    /// Executes exactly one event, if any is pending. Returns the timestamp
    /// of the executed event.
    pub fn step(&mut self, state: &mut S) -> Option<SimTime> {
        let ev = self.queue.pop_at_most(SimTime::MAX)?;
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        let kind = ev.kind;
        let observed = self.notify_event_start();
        ev.cell.invoke(state, self);
        self.processed += 1;
        self.notify_observer(kind, observed);
        Some(self.now)
    }

    /// Announces an imminent handler to the observer, if attached.
    /// Returns whether one was — the post-event record is only delivered
    /// when the observer saw the start too.
    fn notify_event_start(&mut self) -> bool {
        match self.observer.as_mut() {
            Some(observer) => {
                observer.on_event_start();
                true
            }
            None => false,
        }
    }

    /// Delivers one post-event record to the observer, if attached.
    /// `observed` is `true` exactly when an observer was attached before
    /// the handler ran; a handler that detaches the observer mid-flight
    /// simply loses that one record.
    fn notify_observer(&mut self, kind: &'static str, observed: bool) {
        if !observed {
            return;
        }
        if let Some(observer) = self.observer.as_mut() {
            observer.on_event(&EventRecord {
                at: self.now,
                kind,
                queue_depth: self.queue.len(),
            });
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Discards all pending events without running them.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Returns a retired boxed-event cell to the free-list (called from
    /// the boxed invoke shim just before the handler runs).
    pub(crate) fn recycle_event_box(&mut self, ptr: *mut u8, layout: Layout) {
        self.pool.recycle(ptr, layout);
    }

    /// Number of pooled boxed-event cells (test observability).
    #[cfg(test)]
    pub(crate) fn debug_pooled_event_boxes(&self) -> usize {
        self.pool.pooled()
    }
}

impl<S: 'static> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: 'static> fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_time_order() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        engine.schedule(SimTime::from_secs(3), |log, _| log.push(3));
        engine.schedule(SimTime::from_secs(1), |log, _| log.push(1));
        engine.schedule(SimTime::from_secs(2), |log, _| log.push(2));
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut engine: Engine<Vec<u32>> = Engine::new();
        for i in 0..5 {
            engine.schedule(SimTime::from_secs(1), move |log: &mut Vec<u32>, _| {
                log.push(i)
            });
        }
        let mut log = Vec::new();
        engine.run(&mut log);
        assert_eq!(log, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handlers_can_reschedule() {
        let mut engine: Engine<u32> = Engine::new();
        fn tick(count: &mut u32, engine: &mut Engine<u32>) {
            *count += 1;
            if *count < 4 {
                engine.schedule_in(SimDuration::from_secs(2), tick);
            }
        }
        engine.schedule(SimTime::ZERO, tick);
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 4);
        assert_eq!(engine.now(), SimTime::from_secs(6));
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_secs(1), |c, _| *c += 1);
        engine.schedule(SimTime::from_secs(10), |c, _| *c += 1);
        let mut count = 0;
        let n = engine.run_until(&mut count, SimTime::from_secs(5));
        assert_eq!(n, 1);
        assert_eq!(count, 1);
        assert_eq!(engine.now(), SimTime::from_secs(5));
        assert_eq!(engine.pending(), 1);
        engine.run(&mut count);
        assert_eq!(count, 2);
    }

    #[test]
    fn step_executes_single_event() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_secs(2), |c, _| *c += 10);
        let mut count = 0;
        assert_eq!(engine.step(&mut count), Some(SimTime::from_secs(2)));
        assert_eq!(count, 10);
        assert_eq!(engine.step(&mut count), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_secs(5), |_, _| {});
        let mut s = 0;
        engine.run(&mut s);
        engine.schedule(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn clear_discards_pending() {
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::from_secs(1), |c, _| *c += 1);
        engine.clear();
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 0);
    }

    #[test]
    fn observer_sees_labeled_events() {
        use crate::observe::{EngineObserver, EventRecord};
        use std::cell::RefCell;
        use std::rc::Rc;

        struct KindLog(Rc<RefCell<Vec<(&'static str, usize)>>>);
        impl EngineObserver for KindLog {
            fn on_event(&mut self, r: &EventRecord) {
                self.0.borrow_mut().push((r.kind, r.queue_depth));
            }
        }

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine: Engine<u32> = Engine::new();
        engine.set_observer(Box::new(KindLog(Rc::clone(&log))));
        engine.schedule_labeled(SimTime::from_secs(1), "arrival", |c, e| {
            *c += 1;
            e.schedule_in_labeled(SimDuration::from_secs(1), "departure", |c, _| *c += 1);
        });
        engine.schedule(SimTime::from_secs(3), |c, _| *c += 1);
        let mut count = 0;
        engine.run(&mut count);
        // After "arrival" runs it has scheduled "departure", so depth is 2
        // (departure + the unlabeled event); depths then drain to 0.
        assert_eq!(
            *log.borrow(),
            vec![("arrival", 2), ("departure", 1), (UNLABELED_EVENT, 0)]
        );
    }

    #[test]
    fn observer_does_not_change_execution() {
        fn build() -> Engine<Vec<u32>> {
            let mut engine: Engine<Vec<u32>> = Engine::new();
            engine.schedule(SimTime::from_secs(2), |log, _| log.push(2));
            engine.schedule(SimTime::from_secs(1), |log, _| log.push(1));
            engine
        }
        let mut plain = build();
        let mut observed = build();
        observed.set_observer(Box::new(crate::observe::CountingObserver::default()));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        plain.run(&mut a);
        observed.run(&mut b);
        assert_eq!(a, b);
        assert_eq!(plain.now(), observed.now());
    }

    #[test]
    fn next_event_time_peeks() {
        let mut engine: Engine<()> = Engine::new();
        assert_eq!(engine.next_event_time(), None);
        engine.schedule(SimTime::from_secs(7), |_, _| {});
        assert_eq!(engine.next_event_time(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn small_captures_never_box() {
        let mut engine: Engine<u64> = Engine::new();
        let a = 1u64;
        let b = 2u64;
        let c = 3u64;
        for i in 0..100u64 {
            engine.schedule(SimTime::from_nanos(i), move |s, _| *s += a + b + c);
        }
        let mut state = 0;
        engine.run(&mut state);
        assert_eq!(state, 600);
        assert_eq!(engine.boxed_events_scheduled(), 0);
    }

    #[test]
    fn large_captures_box_and_still_run() {
        let mut engine: Engine<u64> = Engine::new();
        let payload = [2u64; 6];
        engine.schedule(SimTime::ZERO, move |s, _| *s += payload.iter().sum::<u64>());
        let mut state = 0;
        engine.run(&mut state);
        assert_eq!(state, 12);
        assert_eq!(engine.boxed_events_scheduled(), 1);
    }

    #[test]
    fn dropped_engine_releases_unrun_closures() {
        use std::cell::Cell;
        use std::rc::Rc;
        let alive = Rc::new(Cell::new(0u32));
        struct Guard(Rc<Cell<u32>>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        {
            let mut engine: Engine<u32> = Engine::new();
            let g1 = Guard(Rc::clone(&alive));
            let g2 = Guard(Rc::clone(&alive));
            let pad = [0u64; 8];
            engine.schedule(SimTime::from_secs(1), move |_, _| drop(g1));
            engine.schedule(SimTime::from_secs(2), move |_, _| {
                drop(g2);
                let _ = pad;
            });
        }
        assert_eq!(alive.get(), 2, "engine drop released both closures");
    }
}
