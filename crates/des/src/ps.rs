//! Processor-sharing resource.
//!
//! Models a server of capacity `C` work-units/second shared equally among all
//! in-flight jobs — the standard fluid approximation for a disk, an SSD
//! channel, or a metadata server handling many concurrent requests. Used by
//! the storage devices, the Lustre OSS pool and MDS, and CPU-ish servers.
//!
//! Ownership pattern: the resource is passive. After any mutating call
//! (`add`, `cancel`, `set_capacity`, `poll`), the owner re-reads
//! `next_completion()` + `gen()` and schedules a wake event; stale wakes are
//! dropped by comparing generations.

use crate::sim::Gen;
use crate::time::{SimTime, NANOS_PER_SEC};

/// Handle to a job inside a [`PsResource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u64);

struct Job<T> {
    remaining: f64,
    tag: T,
}

pub struct PsResource<T> {
    capacity: f64,
    /// In-flight jobs, ascending by key. Keys are handed out monotonically,
    /// so `add` appends and every drain, harvest and `work_done` sum walks
    /// the jobs in key order. A resource holds at most a few dozen jobs, so
    /// a flat vector beats any map.
    jobs: Vec<(u64, Job<T>)>,
    next_key: u64,
    last: SimTime,
    gen: Gen,
    completed: Vec<(JobKey, T)>,
    /// Total work completed since construction (for utilization accounting).
    pub work_done: f64,
}

impl<T> PsResource<T> {
    pub fn new(capacity: f64) -> Self {
        assert!(capacity >= 0.0 && capacity.is_finite());
        PsResource {
            capacity,
            jobs: Vec::new(),
            next_key: 0,
            last: SimTime::ZERO,
            gen: Gen::default(),
            completed: Vec::new(),
            work_done: 0.0,
        }
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight jobs.
    pub fn load(&self) -> usize {
        self.jobs.len()
    }

    /// Outstanding (unfinished) work across all jobs.
    pub fn backlog(&self) -> f64 {
        self.jobs.iter().map(|(_, j)| j.remaining).sum()
    }

    fn min_remaining(&self) -> f64 {
        self.jobs
            .iter()
            .map(|(_, j)| j.remaining)
            .fold(f64::INFINITY, f64::min)
    }

    /// Move any numerically finished jobs (remaining ~ 0 after float
    /// subtraction) to the completed list. Without this sweep a job that hits
    /// exactly 0.0 in the partial-drain branch would never be harvested and
    /// `next_completion` would return the same instant forever.
    fn harvest_zero(&mut self) {
        let done = self.jobs.extract_if(.., |(_, j)| j.remaining <= 1e-9);
        self.completed.extend(done.map(|(k, j)| (JobKey(k), j.tag)));
    }

    /// Advance the fluid state to `now`, moving finished jobs to the
    /// completed list. Completions within the interval are processed exactly,
    /// in shortest-remaining order.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "PsResource clock went backwards");
        self.harvest_zero();
        let mut cur = self.last;
        while cur < now && !self.jobs.is_empty() && self.capacity > 0.0 {
            let n = self.jobs.len() as f64;
            let per_job_rate = self.capacity / n;
            let min_rem = self.min_remaining();
            let dt_to_first = min_rem / per_job_rate; // seconds
            let avail = now.since(cur).as_secs_f64();
            if dt_to_first <= avail {
                // Drain min_rem from every job; harvest the finished ones in
                // one in-order compaction pass.
                let drained = min_rem;
                cur = add_secs(cur, dt_to_first).min(now);
                let work_done = &mut self.work_done;
                let done = self.jobs.extract_if(.., |(_, j)| {
                    j.remaining -= drained;
                    if j.remaining <= drained * 1e-9 + 1e-6 {
                        *work_done += drained + j.remaining.max(0.0);
                        true
                    } else {
                        *work_done += drained;
                        false
                    }
                });
                self.completed.extend(done.map(|(k, j)| (JobKey(k), j.tag)));
            } else {
                // No completion before `now`: drain partially and stop.
                let drained = per_job_rate * avail;
                for (_, j) in &mut self.jobs {
                    j.remaining -= drained;
                    self.work_done += drained;
                }
                cur = now;
            }
        }
        self.last = now;
        self.harvest_zero();
    }

    /// Submit `work` units. Zero-work jobs complete immediately.
    pub fn add(&mut self, now: SimTime, work: f64, tag: T) -> JobKey {
        assert!(work >= 0.0 && work.is_finite());
        self.advance(now);
        self.gen.bump();
        let key = JobKey(self.next_key);
        self.next_key += 1;
        if work == 0.0 {
            self.completed.push((key, tag));
        } else {
            self.jobs.push((
                key.0,
                Job {
                    remaining: work,
                    tag,
                },
            ));
        }
        key
    }

    /// Remove a job before completion; returns its tag if it was in flight.
    pub fn cancel(&mut self, now: SimTime, key: JobKey) -> Option<T> {
        self.advance(now);
        let at = self.jobs.binary_search_by_key(&key.0, |(k, _)| *k).ok()?;
        let (_, j) = self.jobs.remove(at);
        self.gen.bump();
        Some(j.tag)
    }

    /// Change the shared capacity (e.g. SSD entering garbage collection).
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.advance(now);
        if (capacity - self.capacity).abs() > f64::EPSILON {
            self.capacity = capacity;
            self.gen.bump();
        }
    }

    /// Advance to `now` and drain the completions that are due.
    pub fn poll(&mut self, now: SimTime) -> Vec<(JobKey, T)> {
        self.advance(now);
        if !self.completed.is_empty() {
            self.gen.bump();
        }
        std::mem::take(&mut self.completed)
    }

    /// Instant at which [`PsResource::poll`] will next return something:
    /// the already-due completions' harvest time when any are pending,
    /// otherwise the next in-flight completion. `None` when idle or stalled.
    pub fn next_completion(&self) -> Option<SimTime> {
        if !self.completed.is_empty() {
            return Some(self.last);
        }
        if self.jobs.is_empty() || self.capacity <= 0.0 {
            return None;
        }
        let n = self.jobs.len() as f64;
        Some(add_secs(
            self.last,
            self.min_remaining() * n / self.capacity,
        ))
    }
}

fn add_secs(t: SimTime, secs: f64) -> SimTime {
    let ns = secs * NANOS_PER_SEC as f64;
    if !ns.is_finite() || ns >= (u64::MAX - t.as_nanos()) as f64 {
        SimTime::FAR_FUTURE
    } else {
        SimTime::from_nanos(t.as_nanos() + ns.ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until_empty(ps: &mut PsResource<u32>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(t) = ps.next_completion() {
            for (_, tag) in ps.poll(t) {
                out.push((t, tag));
            }
        }
        out
    }

    #[test]
    fn single_job_takes_work_over_capacity() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 50.0, 1u32);
        let done = drain_until_empty(&mut ps);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_equal_jobs_share_capacity() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 50.0, 1u32);
        ps.add(SimTime::ZERO, 50.0, 2u32);
        let done = drain_until_empty(&mut ps);
        // Each gets 50 units at 50/s -> both complete at t=1.0.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "got {t}");
        }
    }

    #[test]
    fn short_job_finishes_first_then_rate_rises() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 10.0, 1u32); // done at t=0.2 (rate 50 while shared)
        ps.add(SimTime::ZERO, 100.0, 2u32); // 10 done by 0.2, then 90 at 100/s -> t=1.1
        let done = drain_until_empty(&mut ps);
        assert_eq!(done[0].1, 1);
        assert!((done[0].0.as_secs_f64() - 0.2).abs() < 1e-6);
        assert_eq!(done[1].1, 2);
        assert!((done[1].0.as_secs_f64() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_slows_existing_job() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 100.0, 1u32);
        // At t=0.5 the first job has 50 left; the newcomer halves its rate.
        ps.add(SimTime::from_secs_f64(0.5), 50.0, 2u32);
        let done = drain_until_empty(&mut ps);
        // Both have 50 remaining at t=0.5 sharing 100 -> done at t=1.5.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.5).abs() < 1e-6, "got {t}");
        }
    }

    #[test]
    fn capacity_change_mid_flight() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 100.0, 1u32);
        // Half done at t=0.5, then capacity drops 4x: 50 left at 25/s -> +2.0s.
        ps.set_capacity(SimTime::from_secs_f64(0.5), 25.0);
        let done = drain_until_empty(&mut ps);
        assert!((done[0].0.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_stalls() {
        let mut ps = PsResource::new(0.0);
        ps.add(SimTime::ZERO, 10.0, 1u32);
        assert_eq!(ps.next_completion(), None);
        ps.set_capacity(SimTime::from_secs_f64(1.0), 10.0);
        let done = drain_until_empty(&mut ps);
        assert!((done[0].0.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut ps = PsResource::new(10.0);
        ps.add(SimTime::ZERO, 0.0, 7u32);
        let got = ps.poll(SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 7);
    }

    #[test]
    fn cancel_removes_job_and_speeds_up_other() {
        let mut ps = PsResource::new(100.0);
        let a = ps.add(SimTime::ZERO, 100.0, 1u32);
        ps.add(SimTime::ZERO, 100.0, 2u32);
        // Cancel job 1 at t=0.5 (each has 75 left); job 2 then runs at 100/s.
        assert_eq!(ps.cancel(SimTime::from_secs_f64(0.5), a), Some(1));
        let done = drain_until_empty(&mut ps);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn gen_bumps_on_mutation() {
        let mut ps = PsResource::new(1.0);
        let g0 = ps.gen();
        ps.add(SimTime::ZERO, 1.0, 0u32);
        assert_ne!(ps.gen(), g0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Work conservation: with constant capacity and no idle periods the
        /// total completion time of a batch equals total_work / capacity.
        #[test]
        fn batch_drains_in_total_work_time(
            works in proptest::collection::vec(1.0f64..100.0, 1..20),
            cap in 1.0f64..50.0,
        ) {
            let mut ps = PsResource::new(cap);
            let total: f64 = works.iter().sum();
            for (i, &w) in works.iter().enumerate() {
                ps.add(SimTime::ZERO, w, i as u32);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(t) = ps.next_completion() {
                let done = ps.poll(t);
                count += done.len();
                last = t;
            }
            prop_assert_eq!(count, works.len());
            let expect = total / cap;
            prop_assert!((last.as_secs_f64() - expect).abs() < expect * 1e-6 + 1e-6,
                "last={} expect={}", last.as_secs_f64(), expect);
        }

        /// Jobs submitted at the same instant finish in non-decreasing order
        /// of their work (processor sharing preserves size order).
        #[test]
        fn size_order_for_simultaneous_jobs(
            works in proptest::collection::vec(1.0f64..100.0, 2..20),
        ) {
            let mut ps = PsResource::new(10.0);
            for (i, &w) in works.iter().enumerate() {
                ps.add(SimTime::ZERO, w, i as u32);
            }
            let mut finished: Vec<u32> = Vec::new();
            while let Some(t) = ps.next_completion() {
                finished.extend(ps.poll(t).into_iter().map(|(_, tag)| tag));
            }
            prop_assert_eq!(finished.len(), works.len());
            for pair in finished.windows(2) {
                let (a, b) = (works[pair[0] as usize], works[pair[1] as usize]);
                prop_assert!(a <= b + 1e-6, "finished {a} after {b}");
            }
        }
    }
}

/// The original `BTreeMap`-backed implementation (less the generation
/// counter and argument checks), kept as the oracle for the flat
/// [`PsResource`]: same drains, same harvest order, same float
/// accumulation order.
#[cfg(test)]
mod reference {
    use super::{add_secs, JobKey};
    use crate::time::SimTime;
    use std::collections::BTreeMap;

    struct Job<T> {
        remaining: f64,
        tag: T,
    }

    pub struct MapPs<T> {
        capacity: f64,
        jobs: BTreeMap<u64, Job<T>>,
        next_key: u64,
        last: SimTime,
        completed: Vec<(JobKey, T)>,
        pub work_done: f64,
    }

    impl<T> MapPs<T> {
        pub fn new(capacity: f64) -> Self {
            MapPs {
                capacity,
                jobs: BTreeMap::new(),
                next_key: 0,
                last: SimTime::ZERO,
                completed: Vec::new(),
                work_done: 0.0,
            }
        }

        pub fn load(&self) -> usize {
            self.jobs.len()
        }

        pub fn backlog(&self) -> f64 {
            self.jobs.values().map(|j| j.remaining).sum()
        }

        fn harvest_zero(&mut self) {
            let done: Vec<u64> = self
                .jobs
                .iter()
                .filter(|(_, j)| j.remaining <= 1e-9)
                .map(|(&k, _)| k)
                .collect();
            for k in done {
                let j = self.jobs.remove(&k).unwrap();
                self.completed.push((JobKey(k), j.tag));
            }
        }

        fn advance(&mut self, now: SimTime) {
            self.harvest_zero();
            let mut cur = self.last;
            while cur < now && !self.jobs.is_empty() && self.capacity > 0.0 {
                let n = self.jobs.len() as f64;
                let per_job_rate = self.capacity / n;
                let min_rem = self
                    .jobs
                    .values()
                    .map(|j| j.remaining)
                    .fold(f64::INFINITY, f64::min);
                let dt_to_first = min_rem / per_job_rate;
                let avail = now.since(cur).as_secs_f64();
                if dt_to_first <= avail {
                    let drained = min_rem;
                    cur = add_secs(cur, dt_to_first).min(now);
                    let keys: Vec<u64> = self.jobs.keys().copied().collect();
                    for k in keys {
                        let done = {
                            let j = self.jobs.get_mut(&k).unwrap();
                            j.remaining -= drained;
                            j.remaining <= drained * 1e-9 + 1e-6
                        };
                        if done {
                            let j = self.jobs.remove(&k).unwrap();
                            self.work_done += drained + j.remaining.max(0.0);
                            self.completed.push((JobKey(k), j.tag));
                        } else {
                            self.work_done += drained;
                        }
                    }
                } else {
                    let drained = per_job_rate * avail;
                    for j in self.jobs.values_mut() {
                        j.remaining -= drained;
                        self.work_done += drained;
                    }
                    cur = now;
                }
            }
            self.last = now;
            self.harvest_zero();
        }

        pub fn add(&mut self, now: SimTime, work: f64, tag: T) -> JobKey {
            self.advance(now);
            let key = JobKey(self.next_key);
            self.next_key += 1;
            if work == 0.0 {
                self.completed.push((key, tag));
            } else {
                self.jobs.insert(
                    key.0,
                    Job {
                        remaining: work,
                        tag,
                    },
                );
            }
            key
        }

        pub fn cancel(&mut self, now: SimTime, key: JobKey) -> Option<T> {
            self.advance(now);
            self.jobs.remove(&key.0).map(|j| j.tag)
        }

        pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
            self.advance(now);
            if (capacity - self.capacity).abs() > f64::EPSILON {
                self.capacity = capacity;
            }
        }

        pub fn poll(&mut self, now: SimTime) -> Vec<(JobKey, T)> {
            self.advance(now);
            std::mem::take(&mut self.completed)
        }

        pub fn next_completion(&self) -> Option<SimTime> {
            if !self.completed.is_empty() {
                return Some(self.last);
            }
            if self.jobs.is_empty() || self.capacity <= 0.0 {
                return None;
            }
            let n = self.jobs.len() as f64;
            let min_rem = self
                .jobs
                .values()
                .map(|j| j.remaining)
                .fold(f64::INFINITY, f64::min);
            Some(add_secs(self.last, min_rem * n / self.capacity))
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::MapPs;
    use super::*;
    use proptest::prelude::*;

    /// One random call `(kind, dt, x)`: `kind` picks the method (weights
    /// 4 add : 1 cancel : 1 set_capacity : 2 poll : 3 poll-next), `dt` past
    /// 1 s advances the clock by the excess (so a third of calls land at the
    /// same instant), and `x` in [0, 1) scales the argument.
    fn raw_op() -> (
        std::ops::Range<u32>,
        std::ops::Range<u64>,
        std::ops::Range<f64>,
    ) {
        (0..11, 0..3_000_000_000, 0.0..1.0)
    }

    proptest! {
        /// The flat resource and the `BTreeMap` oracle agree bit for bit on
        /// every completion (time, key, tag), on `next_completion`, on
        /// `work_done` and on `backlog`, under any interleaving of calls.
        #[test]
        fn flat_matches_btreemap_oracle(
            cap in 0.5f64..500.0,
            ops in proptest::collection::vec(raw_op(), 1..120),
        ) {
            let mut flat = PsResource::new(cap);
            let mut oracle = MapPs::new(cap);
            let mut now = SimTime::ZERO;
            let mut keys: Vec<JobKey> = Vec::new();
            for (i, (kind, dt, x)) in ops.into_iter().enumerate() {
                let tag = i as u32;
                if kind != 10 && dt >= 1_000_000_000 {
                    now = SimTime::from_nanos(now.as_nanos() + dt - 1_000_000_000);
                }
                // Zero work and zero capacity are edge cases worth hitting.
                let scaled = |hi: f64| if x < 0.1 { 0.0 } else { x * hi };
                let got = match kind {
                    0..=3 => {
                        let work = scaled(1e3);
                        let k = flat.add(now, work, tag);
                        prop_assert_eq!(k, oracle.add(now, work, tag));
                        keys.push(k);
                        None
                    }
                    4 => {
                        if !keys.is_empty() {
                            let k = keys[(x * keys.len() as f64) as usize];
                            prop_assert_eq!(flat.cancel(now, k), oracle.cancel(now, k));
                        }
                        None
                    }
                    5 => {
                        let cap = scaled(500.0);
                        flat.set_capacity(now, cap);
                        oracle.set_capacity(now, cap);
                        None
                    }
                    6..=7 => Some((flat.poll(now), oracle.poll(now))),
                    _ => match flat.next_completion() {
                        Some(t) if t < SimTime::FAR_FUTURE => {
                            now = t;
                            Some((flat.poll(now), oracle.poll(now)))
                        }
                        _ => None,
                    },
                };
                if let Some((a, b)) = got {
                    prop_assert_eq!(a, b, "completions at {}", now);
                }
                prop_assert_eq!(flat.next_completion(), oracle.next_completion());
                prop_assert_eq!(flat.work_done.to_bits(), oracle.work_done.to_bits());
                prop_assert_eq!(flat.backlog().to_bits(), oracle.backlog().to_bits());
                prop_assert_eq!(flat.load(), oracle.load());
            }
        }
    }
}
