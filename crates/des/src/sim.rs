//! The simulation drive loop.
//!
//! A simulation is a [`Model`] (all mutable world state) plus an event
//! calendar. The model's `handle` receives one event at a time together with
//! an [`Outbox`] through which it schedules follow-up events. Components that
//! must *cancel* previously scheduled events (fair-share recomputation in the
//! network, queue changes in storage devices) use the stale-event idiom
//! instead: they stamp events with a [`Gen`] generation counter and ignore
//! events whose generation no longer matches.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Engine self-observation snapshot handed to models that opt in via
/// [`Model::wants_engine_stats`]: processed-event count and calendar health
/// (DESIGN.md §4.16). Taken after the current event's outbox has been
/// drained onto the calendar, so `queue` reflects the post-event state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed so far (monotone).
    pub steps: u64,
    /// Events buffered on the calendar.
    pub queue_len: usize,
    /// Calendar-queue health, when the calendar implementation is in use.
    pub queue: crate::queue::QueueStats,
}

/// World state driven by the event loop.
pub trait Model {
    type Event;

    /// Process one event at instant `now`, scheduling follow-ups via `out`.
    fn handle(&mut self, now: SimTime, event: Self::Event, out: &mut Outbox<Self::Event>);

    /// Opt in to per-event [`EngineStats`] observation. Checked (one bool
    /// test) after every `handle`; the default keeps the hot loop free of
    /// any self-observation cost.
    fn wants_engine_stats(&self) -> bool {
        false
    }

    /// Receive the engine snapshot taken after the event just handled. Only
    /// called when [`Model::wants_engine_stats`] returns true.
    fn observe_engine(&mut self, _stats: EngineStats) {}
}

/// Whether past-time scheduling is rejected by default: on in debug builds
/// (tests, `cargo run` without `--release`), off in release builds unless a
/// harness opts in (`repro fuzz` does — DESIGN.md §4.15).
fn strict_default() -> bool {
    cfg!(debug_assertions)
}

/// Collector for events scheduled while handling the current event.
pub struct Outbox<E> {
    now: SimTime,
    strict: bool,
    items: Vec<(SimTime, E)>,
}

impl<E> Outbox<E> {
    /// Create a standalone outbox (for drivers injecting events from outside
    /// the event loop).
    pub fn standalone(now: SimTime) -> Self {
        Outbox {
            now,
            strict: strict_default(),
            items: Vec::new(),
        }
    }

    /// Drain the collected events (standalone use).
    pub fn into_items(self) -> Vec<(SimTime, E)> {
        self.items
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Opt in or out of the past-time scheduling assertion (see
    /// [`Simulation::set_strict_schedule`]).
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Schedule an event at an absolute instant (clamped to `now`: models may
    /// compute "due" times in the past by float rounding; those fire now).
    ///
    /// In strict mode (debug builds and fuzz runs) a genuinely past target is
    /// rejected outright — the dynamic counterpart of the `event-past` lint
    /// (R5, DESIGN.md §4.15). The PR 8 `lustre_shared_transfer` bug class
    /// (flows opened at future timestamps, events landed in the past) fails
    /// here immediately instead of corrupting a later export.
    pub fn at(&mut self, time: SimTime, event: E) {
        if self.strict {
            assert!(
                time >= self.now,
                "event scheduled in the past: target {time:?} precedes now {:?}",
                self.now
            );
        }
        self.items.push((time.max(self.now), event));
    }

    /// Schedule an event `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.items.push((self.now + delay, event));
    }

    /// Schedule an event for immediate processing (after already-queued
    /// events at the current instant).
    pub fn immediately(&mut self, event: E) {
        self.items.push((self.now, event));
    }
}

/// A discrete-event simulation: event calendar + model + clock.
pub struct Simulation<M: Model> {
    pub model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    steps: u64,
    strict: bool,
    /// Hard cap on processed events; guards against runaway event storms.
    pub max_steps: u64,
}

impl<M: Model> Simulation<M> {
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
            strict: strict_default(),
            max_steps: u64::MAX,
        }
    }

    /// Toggle the past-time scheduling assertion for this simulation and the
    /// outboxes it hands to the model. Defaults to on in debug builds; the
    /// fuzz harness turns it on explicitly in release runs, and the one
    /// lenient-clamp regression test turns it off.
    pub fn set_strict_schedule(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Swap in the reference `BinaryHeap` event calendar, the oracle the
    /// calendar queue is tested against. Events already scheduled move
    /// over in pop order, so the pop sequence is unchanged.
    pub fn use_legacy_queue(&mut self) {
        let mut heap = EventQueue::heap();
        while let Some((time, event)) = self.queue.pop() {
            heap.push(time, event);
        }
        self.queue = heap;
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn schedule(&mut self, time: SimTime, event: M::Event) {
        if self.strict {
            assert!(
                time >= self.now,
                "event scheduled in the past: target {time:?} precedes now {:?}",
                self.now
            );
        }
        self.queue.push(time.max(self.now), event);
    }

    pub fn schedule_after(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Move every event collected in a standalone [`Outbox`] onto the
    /// calendar. The outbox already enforced the past-time discipline at
    /// insertion; the clamp here is belt-and-braces for outboxes built
    /// against an older clock.
    pub fn drain_outbox(&mut self, out: Outbox<M::Event>) {
        for (t, e) in out.into_items() {
            self.queue.push(t.max(self.now), e);
        }
    }

    /// Process a single event. Returns `false` when the calendar is empty.
    /// Panics if the `max_steps` budget is exhausted; harnesses that must
    /// survive runaway models use [`Simulation::try_step`] instead.
    pub fn step(&mut self) -> bool {
        match self.try_step() {
            Ok(progressed) => progressed,
            Err(e) => panic!(
                "simulation exceeded max_steps={} (event storm?)",
                e.max_steps
            ),
        }
    }

    /// Like [`Simulation::step`], but reports an exhausted event budget as an
    /// error instead of panicking, so a fuzz harness can turn a runaway event
    /// storm into an ordinary oracle failure (DESIGN.md §4.13).
    pub fn try_step(&mut self) -> Result<bool, BudgetExhausted> {
        let Some((time, event)) = self.queue.pop() else {
            return Ok(false);
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(BudgetExhausted {
                max_steps: self.max_steps,
            });
        }
        let mut out = Outbox {
            now: self.now,
            strict: self.strict,
            items: Vec::new(),
        };
        self.model.handle(self.now, event, &mut out);
        for (t, e) in out.items {
            // lint:allow(event-past): Outbox::at already asserted/clamped every item against the turn's now
            self.queue.push(t, e);
        }
        if self.model.wants_engine_stats() {
            let stats = EngineStats {
                steps: self.steps,
                queue_len: self.queue.len(),
                queue: self.queue.stats(),
            };
            self.model.observe_engine(stats);
        }
        Ok(true)
    }

    /// Run until the calendar drains. Returns the final clock value.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run until the calendar drains or the clock passes `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now
    }
}

/// The event budget (`max_steps`) was exhausted before the calendar drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExhausted {
    pub max_steps: u64,
}

/// Generation counter for the stale-event idiom.
///
/// A component that may need to "cancel" an in-flight event bumps its
/// generation on every state change; events carry the generation current at
/// scheduling time, and the handler drops events whose generation is stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gen(pub u64);

impl Gen {
    pub fn bump(&mut self) -> Gen {
        self.0 += 1;
        *self
    }

    pub fn is_current(self, other: Gen) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that chains events: each `Tick(n)` schedules `Tick(n-1)` one
    /// second later until zero.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl Model for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((now, n));
            if n > 0 {
                out.after(SimDuration::from_secs(1), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule(SimTime::from_secs_f64(2.0), Ev::Tick(3));
        let end = sim.run();
        assert_eq!(end, SimTime::from_secs_f64(5.0));
        assert_eq!(sim.model.fired.len(), 4);
        assert_eq!(sim.model.fired[0], (SimTime::from_secs_f64(2.0), 3));
        assert_eq!(sim.model.fired[3], (SimTime::from_secs_f64(5.0), 0));
        assert_eq!(sim.steps(), 4);
    }

    #[test]
    fn heap_swap_keeps_pending_events_in_order() {
        let run = |swap: bool| {
            let mut sim = Simulation::new(Countdown { fired: vec![] });
            for (t, n) in [(3.0, 1), (1.0, 2), (3.0, 0), (1.0, 4)] {
                sim.schedule(SimTime::from_secs_f64(t), Ev::Tick(n));
            }
            if swap {
                sim.use_legacy_queue();
            }
            sim.run();
            sim.model.fired
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).len(), 11);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule(SimTime::ZERO, Ev::Tick(100));
        sim.run_until(SimTime::from_secs_f64(3.5));
        // Ticks at t=0,1,2,3 fire; t=4 does not.
        assert_eq!(sim.model.fired.len(), 4);
    }

    /// A model that schedules one deliberately past-time event.
    struct PastScheduler {
        got: Vec<SimTime>,
    }
    impl Model for PastScheduler {
        type Event = bool;
        fn handle(&mut self, now: SimTime, first: bool, out: &mut Outbox<bool>) {
            self.got.push(now);
            if first {
                out.at(SimTime::ZERO, false);
            }
        }
    }

    #[test]
    fn outbox_clamps_past_times_when_lenient() {
        let mut sim = Simulation::new(PastScheduler { got: vec![] });
        sim.set_strict_schedule(false);
        sim.schedule(SimTime::from_secs_f64(5.0), true);
        sim.run();
        // "Past" target gets clamped to now.
        assert_eq!(sim.model.got, vec![SimTime::from_secs_f64(5.0); 2]);
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn strict_mode_rejects_past_outbox_times() {
        let mut sim = Simulation::new(PastScheduler { got: vec![] });
        sim.set_strict_schedule(true);
        sim.schedule(SimTime::from_secs_f64(5.0), true);
        sim.run();
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn strict_mode_rejects_past_schedule() {
        let mut sim = Simulation::new(PastScheduler { got: vec![] });
        sim.set_strict_schedule(true);
        sim.schedule(SimTime::from_secs_f64(5.0), true);
        assert!(sim.step());
        // The clock now sits at t=5s; direct past-time scheduling trips too.
        sim.schedule(SimTime::from_secs_f64(1.0), false);
    }

    #[test]
    fn gen_staleness() {
        let mut g = Gen::default();
        let snap = g;
        assert!(snap.is_current(g));
        g.bump();
        assert!(!snap.is_current(g));
    }

    #[test]
    #[should_panic(expected = "max_steps")]
    fn step_cap_trips() {
        struct Loopy;
        impl Model for Loopy {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), out: &mut Outbox<()>) {
                out.immediately(());
            }
        }
        let mut sim = Simulation::new(Loopy);
        sim.max_steps = 1000;
        sim.schedule(SimTime::ZERO, ());
        sim.run();
    }
}
