//! Behaviour net: exact engine outputs of the benchmark cells, pinned.
//!
//! A refactor that claims "same behaviour" must leave every line below
//! unchanged: the number of events processed, the simulated job time's bit
//! pattern, the output count, and the flow-network and dispatch work
//! counters. One line per run:
//!
//! `name steps=.. sim_bits=.. count=.. net=[recomputes, waterfill_iters,
//! next_event_calls, next_event_misses, next_event_scans, advance_calls,
//! shared_pushes] core=[dispatch_calls, dispatch_passes, pick_calls,
//! launches]`

use memres::cluster::tiny;
use memres::core::prelude::*;
use memres::des::time::SimDuration;
use memres::des::units::MB;
use memres_bench::experiments::Setup;
use memres_bench::perf::{self, CoreWork, NetWork};
use memres_bench::scale;

fn line(name: &str, d: &Driver, out: &JobOutput, m: &JobMetrics) -> String {
    let n = NetWork::of(&d.world().net);
    let c = CoreWork::of(d.world());
    format!(
        "{name} steps={} sim_bits={:#018x} count={} net=[{}, {}, {}, {}, {}, {}, {}] core=[{}, {}, {}, {}]",
        d.engine_steps(),
        m.job_time().to_bits(),
        out.count,
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

const PAPER_CELLS: [&str; 5] = [
    "fig7a_400gb_ramdisk steps=1039 sim_bits=0x400cd8d399112aed count=536870912 net=[9, 54, 145, 25, 1248, 17, 0] core=[3, 54, 384, 384]",
    "fig7a_400gb_lustre_local steps=1136 sim_bits=0x402cc3fd6715db2b count=536870912 net=[91, 147, 241, 121, 6824, 34, 0] core=[3, 54, 384, 384]",
    "fig7a_400gb_lustre_shared steps=1362 sim_bits=0x4036811c5c419f5d count=536870912 net=[212, 209, 212, 212, 11504, 5, 0] core=[3, 54, 384, 384]",
    "fig8a_600gb_ramdisk steps=1423 sim_bits=0x40199ff0191bf497 count=805306368 net=[13, 70, 209, 89, 4680, 81, 0] core=[68, 264, 520, 512]",
    "fig8a_600gb_ssd steps=2317 sim_bits=0x402426b587c7f12c count=805306368 net=[16, 72, 212, 92, 4232, 83, 0] core=[68, 264, 520, 512]",
];

/// Every `repro bench` cell at smoke scale, seed 1.
#[test]
fn paper_cells_are_pinned() {
    let setup = Setup::smoke();
    let got: Vec<String> = perf::CELL_NAMES
        .iter()
        .map(|name| {
            let (spec, cfg, gb) = perf::cell(setup, name).expect("known cell");
            let mut d = Driver::new(spec, cfg);
            let (out, m) = d.run(&gb.build(), gb.action());
            line(name, &d, &out, &m)
        })
        .collect();
    assert_eq!(got, PAPER_CELLS);
}

const SCALE_SMOKE: &str = "scale_smoke steps=9216 sim_bits=0x400f618e259d1d88 count=6442450944 net=[3, 3, 514, 514, 2046, 2, 1024] core=[3, 25, 4736, 3584]";

/// The `repro scale --smoke` cell, seed 1, with the engine configuration
/// `scale::run` uses.
#[test]
fn scale_smoke_is_pinned() {
    let c = scale::cell("scale_smoke").expect("known cell");
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        scheduler: SchedulerKind::Fifo,
        seed: 1,
        ..EngineConfig::default()
    }
    .homogeneous();
    let gb = memres::workloads::GroupBy::new(c.input_bytes())
        .with_split(c.split_mb * MB)
        .with_reducers(c.reducers);
    let mut d = Driver::new(memres::cluster::hyperion().scaled_workers(c.workers), cfg);
    let (out, m) = d.run(&gb.build(), gb.action());
    let got = line(c.name, &d, &out, &m);
    assert_eq!(got, SCALE_SMOKE);
}

const CACHED_RECOVERY: [&str; 2] = [
    "cold steps=24 sim_bits=0x3f9180913d882962 count=4000 net=[3, 2, 3, 3, 3, 1, 0] core=[1, 5, 10, 8]",
    "faulted steps=48 sim_bits=0x3f9d5ef2874f1cd2 count=4000 net=[5, 3, 5, 5, 4, 3, 0] core=[7, 21, 20, 18]",
];

/// The faulted cached-partition run of `crates/core/tests/faults.rs`: a
/// node holding cached partitions crashes midway through the second job,
/// and the lost partitions are recomputed from lineage — the only path
/// into the recovered-compute launch.
#[test]
fn cached_partition_recovery_is_pinned() {
    let records: Vec<Record> = (0..4000i64)
        .map(|i| (Value::I64((i * 31 + 7) % 97), Value::I64(i)))
        .collect();
    let cached = Rdd::source(Dataset::from_records(records, 8))
        .map("parse", SizeModel::new(1.0, 1.0, 2e6), |r| r)
        .cache();
    let job = cached.map("use", SizeModel::new(1.0, 1.0, 2e6), |r| r);
    let cfg = EngineConfig::default().homogeneous();

    let mut d = Driver::new(tiny(4), cfg.clone());
    d.run(&job, Action::Count);
    let (_, m2) = d.run(&job, Action::Count);
    let start = m2
        .tasks_in(Phase::Compute)
        .map(|t| t.launched_at)
        .fold(f64::INFINITY, f64::min);
    let end = m2
        .tasks_in(Phase::Compute)
        .map(|t| t.finished_at)
        .fold(0.0, f64::max);
    let plan = FaultPlan::new().after(
        SimDuration::from_secs_f64((start + end) * 0.5),
        FaultKind::NodeCrash {
            node: 1,
            restart: None,
        },
    );

    let mut d = Driver::new(tiny(4), cfg.with_faults(plan));
    let (out1, m1) = d.run(&job, Action::Count);
    let first = line("cold", &d, &out1, &m1);
    let (out2, m2) = d.run(&job, Action::Count);
    assert!(m2.recovery.recomputed_partitions > 0, "{:?}", m2.recovery);
    let got = [first, line("faulted", &d, &out2, &m2)];
    assert_eq!(got, CACHED_RECOVERY);
}
