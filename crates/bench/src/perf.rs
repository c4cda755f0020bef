//! Engine wall-clock benchmark: `repro bench [--json DIR]`.
//!
//! Times the *simulator itself* (host wall-clock, not simulated seconds) on
//! the mid-size Fig 7a / Fig 8a GroupBy cells, the repository's hottest
//! end-to-end paths: tens of thousands of shuffle flows through the max–min
//! fair network plus the real-partition executor. The JSON output records
//! each run's host time next to its exact work counters (see EXPERIMENTS.md
//! "Performance"); host-time comparisons between two builds come from
//! `perfbench/` run on one host.

use crate::experiments::Setup;
use crate::Table;
use memres_core::prelude::*;
use memres_des::json::{escape, num};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed run: host wall-clock seconds plus the simulated job time (the
/// latter is a determinism check — optimizations must not change it), plus
/// engine self-profiling counters (events processed, rough peak heap).
#[derive(Clone, Debug)]
pub struct PerfRecord {
    pub name: &'static str,
    pub wall_s: f64,
    pub sim_s: f64,
    /// Simulation events processed end to end.
    pub events: u64,
    /// Rough peak-heap estimate (arena capacities; see `heap_estimate_bytes`).
    pub heap_bytes: u64,
    /// Flow-network and dispatch work counters: exact, so they gate
    /// host-time work without timing noise.
    pub net: NetWork,
    pub core: CoreWork,
}

/// Deterministic work counters of one run's `FlowNet` (DESIGN.md §4.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetWork {
    pub recomputes: u64,
    pub waterfill_iters: u64,
    pub next_event_calls: u64,
    pub next_event_misses: u64,
    pub next_event_scans: u64,
    pub advance_calls: u64,
    pub shared_pushes: u64,
}

impl NetWork {
    pub fn of<T>(net: &memres_net::FlowNet<T>) -> Self {
        NetWork {
            recomputes: net.recomputes,
            waterfill_iters: net.waterfill_iters,
            next_event_calls: net.next_event_calls,
            next_event_misses: net.next_event_misses,
            next_event_scans: net.next_event_scans,
            advance_calls: net.advance_calls,
            shared_pushes: net.shared_pushes,
        }
    }
}

/// Deterministic dispatch work counters of one run (DESIGN.md §4.12).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreWork {
    pub dispatch_calls: u64,
    pub dispatch_passes: u64,
    pub pick_calls: u64,
    pub launches: u64,
}

impl CoreWork {
    pub fn of(w: &memres_core::SimWorld) -> Self {
        CoreWork {
            dispatch_calls: w.dispatch_calls,
            dispatch_passes: w.dispatch_passes,
            pick_calls: w.pick_calls,
            launches: w.launches,
        }
    }
}

impl PerfRecord {
    /// Snapshot a finished driver's counters into a record.
    pub fn of_driver(name: &'static str, wall_s: f64, sim_s: f64, d: &Driver) -> Self {
        PerfRecord {
            name,
            wall_s,
            sim_s,
            events: d.engine_steps(),
            heap_bytes: d.heap_estimate_bytes(),
            net: NetWork::of(&d.world().net),
            core: CoreWork::of(d.world()),
        }
    }

    /// Engine throughput: simulation events per host wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// The run as one JSON object on one line, with its [`NetWork`] and
    /// [`CoreWork`] counters flat.
    pub(crate) fn json_line(&self) -> String {
        let (n, c) = (&self.net, &self.core);
        format!(
            "{{\"name\": \"{}\", \"wall_s\": {}, \"sim_job_s\": {}, \"events\": {}, \"events_per_s\": {}, \"heap_bytes\": {}, \
             \"recomputes\": {}, \"waterfill_iters\": {}, \"next_event_calls\": {}, \"next_event_misses\": {}, \
             \"next_event_scans\": {}, \"advance_calls\": {}, \"shared_pushes\": {}, \
             \"dispatch_calls\": {}, \"dispatch_passes\": {}, \"pick_calls\": {}, \"launches\": {}}}",
            escape(self.name),
            num(self.wall_s),
            num(self.sim_s),
            self.events,
            num(self.events_per_sec()),
            self.heap_bytes,
            n.recomputes,
            n.waterfill_iters,
            n.next_event_calls,
            n.next_event_misses,
            n.next_event_scans,
            n.advance_calls,
            n.shared_pushes,
            c.dispatch_calls,
            c.dispatch_passes,
            c.pick_calls,
            c.launches,
        )
    }
}

/// The benchmark (and `repro trace` / `repro explain`) cell names, in suite
/// order: the mid-size Fig 7a / Fig 8a GroupBy cells.
pub const CELL_NAMES: [&str; 5] = [
    "fig7a_400gb_ramdisk",
    "fig7a_400gb_lustre_local",
    "fig7a_400gb_lustre_shared",
    "fig8a_600gb_ramdisk",
    "fig8a_600gb_ssd",
];

/// Resolve one named cell to its engine inputs (cluster spec, config,
/// workload); `None` for an unknown name. `suite`, `repro trace`, and
/// `repro explain` all construct cells through here so they cannot drift.
pub fn cell(
    setup: Setup,
    name: &str,
) -> Option<(
    memres_cluster::ClusterSpec,
    EngineConfig,
    memres_workloads::GroupBy,
)> {
    let (gb, shuffle) = match name {
        "fig7a_400gb_ramdisk" => (400.0, ShuffleStore::Local(StoreDevice::RamDisk)),
        "fig7a_400gb_lustre_local" => (400.0, ShuffleStore::LustreLocal),
        "fig7a_400gb_lustre_shared" => (400.0, ShuffleStore::LustreShared),
        "fig8a_600gb_ramdisk" => (600.0, ShuffleStore::Local(StoreDevice::RamDisk)),
        "fig8a_600gb_ssd" => (600.0, ShuffleStore::Local(StoreDevice::Ssd)),
        _ => return None,
    };
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle,
        scheduler: SchedulerKind::Fifo,
        seed: setup.seed,
        ..EngineConfig::default()
    };
    Some((
        setup.cluster(),
        cfg,
        memres_workloads::GroupBy::new(setup.bytes(gb)),
    ))
}

/// Time one GroupBy run from driver construction to job end.
pub(crate) fn time_run(
    name: &'static str,
    spec: memres_cluster::ClusterSpec,
    cfg: EngineConfig,
    gb: &memres_workloads::GroupBy,
) -> PerfRecord {
    let t0 = Instant::now();
    let mut d = Driver::new(spec, cfg);
    let m = d.run_for_metrics(&gb.build(), gb.action());
    PerfRecord::of_driver(name, t0.elapsed().as_secs_f64(), m.job_time(), &d)
}

/// The mid-size Fig 7a / Fig 8a cells (400 GB and 600 GB paper-scale,
/// shrunk by `setup.scale` like every other experiment).
pub fn suite(setup: Setup) -> Vec<PerfRecord> {
    CELL_NAMES
        .iter()
        .map(|name| {
            let (spec, cfg, gb) = cell(setup, name).expect("suite cell must resolve");
            time_run(name, spec, cfg, &gb)
        })
        .collect()
}

pub fn table(records: &[PerfRecord]) -> Table {
    let mut t = runs_table(
        "bench",
        "engine wall-clock (host seconds) on mid-size Fig 7a/8a cells",
        records,
    );
    let total: f64 = records.iter().map(|r| r.wall_s).sum();
    t.note(format!("total wall-clock {total:.3}s"));
    t
}

/// One row per run: host and simulated time, events, throughput, heap.
/// The table both `repro bench` and `repro scale` print.
pub(crate) fn runs_table(id: &'static str, title: &str, records: &[PerfRecord]) -> Table {
    let mut t = Table::new(
        id,
        title,
        &["wall_s", "sim_job_s", "events", "events_per_s", "heap_mb"],
    );
    for r in records {
        t.row(
            r.name,
            vec![
                r.wall_s,
                r.sim_s,
                r.events as f64,
                r.events_per_sec(),
                r.heap_bytes as f64 / (1024.0 * 1024.0),
            ],
        );
    }
    t
}

/// Machine-readable record: `{"target": "bench", "scale", "seed", "runs":
/// [...], "total_wall_s"}`.
pub fn to_json(setup: Setup, records: &[PerfRecord]) -> String {
    let head = [
        format!("\"scale\": {}", num(setup.scale)),
        format!("\"seed\": {}", setup.seed),
    ];
    runs_json("bench", &head, records)
}

/// A run-list document: `{"target", <head>, "runs": [...],
/// "total_wall_s"}`, one [`PerfRecord::json_line`] per run. `head` holds
/// pre-rendered `"key": value` members. Shared by `repro bench` and
/// `repro scale`.
pub(crate) fn runs_json(target: &str, head: &[String], records: &[PerfRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"target\": \"{}\",", escape(target));
    for member in head {
        let _ = writeln!(out, "  {member},");
    }
    out.push_str("  \"runs\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&r.json_line());
    }
    if !records.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let total: f64 = records.iter().map(|r| r.wall_s).sum();
    let _ = write!(out, "  \"total_wall_s\": {}\n}}", num(total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let recs = vec![
            PerfRecord {
                name: "a",
                wall_s: 0.25,
                sim_s: 100.0,
                events: 1000,
                heap_bytes: 2 * 1024 * 1024,
                net: NetWork {
                    recomputes: 3,
                    waterfill_iters: 5,
                    next_event_calls: 9,
                    next_event_misses: 4,
                    next_event_scans: 40,
                    advance_calls: 1,
                    shared_pushes: 0,
                },
                core: CoreWork {
                    dispatch_calls: 7,
                    dispatch_passes: 15,
                    pick_calls: 12,
                    launches: 11,
                },
            },
            PerfRecord {
                name: "b",
                wall_s: 0.75,
                sim_s: 200.0,
                events: 3000,
                heap_bytes: 1024,
                net: NetWork::default(),
                core: CoreWork::default(),
            },
        ];
        let j = to_json(
            Setup {
                scale: 0.05,
                seed: 1,
            },
            &recs,
        );
        assert!(j.contains("\"total_wall_s\": 1.0"));
        assert!(j.contains(
            "{\"name\": \"a\", \"wall_s\": 0.25, \"sim_job_s\": 100.0, \"events\": 1000, \"events_per_s\": 4000.0, \"heap_bytes\": 2097152, \
             \"recomputes\": 3, \"waterfill_iters\": 5, \"next_event_calls\": 9, \"next_event_misses\": 4, \
             \"next_event_scans\": 40, \"advance_calls\": 1, \"shared_pushes\": 0, \
             \"dispatch_calls\": 7, \"dispatch_passes\": 15, \"pick_calls\": 12, \"launches\": 11}"
        ));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let t = table(&recs);
        assert_eq!(t.column("wall_s"), vec![0.25, 0.75]);
        assert_eq!(t.column("events_per_s"), vec![4000.0, 4000.0]);
        assert_eq!(t.column("heap_mb"), vec![2.0, 1024.0 / (1024.0 * 1024.0)]);
    }

    #[test]
    fn zero_wall_clock_reports_zero_throughput() {
        // Sub-resolution timers (or a clamped clock) must not divide by
        // zero: events_per_sec is defined as 0 when no wall time elapsed.
        let r = PerfRecord {
            name: "instant",
            wall_s: 0.0,
            sim_s: 1.0,
            events: 12345,
            heap_bytes: 0,
            net: NetWork::default(),
            core: CoreWork::default(),
        };
        assert_eq!(r.events_per_sec(), 0.0);
        assert!(r.events_per_sec().is_finite());
    }

    /// The `next_event` memo is exact and misses only after an event that
    /// can change the answer: a water-fill recompute, a clock move, or a
    /// push onto a shared flow. Without the memo every call would miss.
    #[test]
    fn next_event_misses_only_after_invalidating_events() {
        let (spec, cfg, gb) = cell(Setup::smoke(), "fig7a_400gb_ramdisk").expect("known cell");
        let mut d = Driver::new(spec, cfg);
        d.run_for_metrics(&gb.build(), gb.action());
        let w = NetWork::of(&d.world().net);
        assert!(w.next_event_misses > 0 && w.next_event_scans > 0, "{w:?}");
        assert!(
            w.next_event_misses <= w.recomputes + w.advance_calls + w.shared_pushes,
            "memo missed without an invalidating event: {w:?}"
        );
    }

    #[test]
    fn every_cell_name_resolves() {
        let setup = Setup::smoke();
        for name in CELL_NAMES {
            assert!(cell(setup, name).is_some(), "cell {name} must resolve");
        }
        assert!(cell(setup, "fig99_bogus").is_none());
    }
}
