//! The benchmark workloads, built only through memres' public API.
//!
//! * `paper_shuffle` — the five `perf::CELL_NAMES` cells at paper scale
//!   (100 nodes), back to back: flow-network bound, and it covers the
//!   RAMDisk, SSD and Lustre-local/shared shuffle stores.
//! * `scale_dispatch` — one synthetic scale cell (2,500 workers, 1M
//!   producers): dispatch rescans and a multi-million-event calendar.
//!
//! A *pass* runs every cell of a workload once, from `Driver::new` to the
//! last job's completion, and checks every job's output.

use memres_bench::experiments::Setup;
use memres_bench::perf;
use memres_bench::scale::ScaleCell;
use memres_cluster::ClusterSpec;
use memres_core::prelude::*;
use memres_des::units::MB;
use memres_metrics::Recorder;
use memres_trace::TimedEvent;
use memres_workloads::GroupBy;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperShuffle,
    ScaleDispatch,
}

pub const ALL: [Workload; 2] = [Workload::PaperShuffle, Workload::ScaleDispatch];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperShuffle => "paper_shuffle",
            Workload::ScaleDispatch => "scale_dispatch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The dispatch-bound scale cell: between `scale_4k_1m` and `scale_10k_4m`
/// in pick calls per dispatch, at a few seconds per pass.
pub const SCALE_DISPATCH: ScaleCell = ScaleCell {
    name: "scale_2500w_1m",
    workers: 2_500,
    reducers: 8_192,
    split_mb: 32.0,
    producers: 1_000_000,
};

/// Engine knobs shared by every cell of a pass.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Executor threads (pinned to at most the host's core count).
    pub threads: usize,
    /// Full trace plus the metrics sampler.
    pub traced: bool,
}

/// One GroupBy job on one cluster.
#[derive(Clone)]
pub struct Cell {
    pub name: &'static str,
    spec: ClusterSpec,
    cfg: EngineConfig,
    job: GroupBy,
    expect: Expect,
}

/// The output count a synthetic shuffle job must return. The engine
/// estimates one record per 64 shuffled bytes and rounds down per reducer,
/// so a correct count lies within `reducers` records below
/// `shuffle_bytes / 64`. The engine takes a reducer's records from the
/// shuffle buckets when its fetch starts, before any bytes move, so the
/// check catches shuffle-bucket accounting faults (records dropped or
/// double-counted between map output and reduce), not the loss or
/// duplication of a chunk in flight. A lost chunk shows as a job that never
/// finishes: `Driver::run` panics when the calendar drains or the event
/// budget runs out, and the panic fails the cell.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    pub records: f64,
    pub slack: f64,
}

impl Expect {
    fn groupby(gb: &GroupBy) -> Expect {
        let reducers = gb.reducers.unwrap_or(gb.map_tasks());
        Expect {
            records: gb.input_bytes / 64.0,
            slack: reducers as f64 + 1.0,
        }
    }

    fn admits(&self, count: u64) -> bool {
        let c = count as f64;
        c <= self.records + 1.0 && c >= self.records - self.slack
    }
}

fn engine_cfg(mut cfg: EngineConfig, rc: RunCfg) -> EngineConfig {
    cfg = cfg.with_executor_threads(rc.threads);
    if rc.traced {
        cfg = cfg.with_trace().with_metrics();
    }
    cfg
}

/// The cells of one workload, in pass order.
pub fn cells(w: Workload, rc: RunCfg) -> Vec<Cell> {
    match w {
        Workload::PaperShuffle => {
            let setup = Setup {
                scale: 1.0,
                seed: rc.seed,
            };
            perf::CELL_NAMES
                .iter()
                .map(|&name| {
                    let (spec, cfg, gb) = perf::cell(setup, name).expect("perf cell resolves");
                    Cell {
                        name,
                        spec,
                        cfg: engine_cfg(cfg, rc),
                        expect: Expect::groupby(&gb),
                        job: gb,
                    }
                })
                .collect()
        }
        Workload::ScaleDispatch => {
            let c = SCALE_DISPATCH;
            let cfg = EngineConfig {
                input: InputSource::Lustre,
                shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
                scheduler: SchedulerKind::Fifo,
                seed: rc.seed,
                ..EngineConfig::default()
            }
            .homogeneous();
            let gb = GroupBy::new(c.input_bytes())
                .with_split(c.split_mb * MB)
                .with_reducers(c.reducers);
            vec![Cell {
                name: c.name,
                spec: memres_cluster::hyperion().scaled_workers(c.workers),
                cfg: engine_cfg(cfg, rc),
                expect: Expect::groupby(&gb),
                job: gb,
            }]
        }
    }
}

impl Cell {
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }
}

/// Host seconds of one set-up: `Driver::new`, workload `build` and
/// `Driver::plan`, each summed over the workload's cells.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub new_s: f64,
    pub build_s: f64,
    pub plan_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.new_s + self.build_s + self.plan_s
    }
}

/// Time one set-up of every cell; the drivers and plans are dropped after.
pub fn setup_once(cells: &[Cell]) -> SetupTimes {
    let mut t = SetupTimes::default();
    for c in cells {
        let (spec, cfg) = (c.spec.clone(), c.cfg.clone());
        let t0 = Instant::now();
        let d = Driver::new(spec, cfg);
        let t1 = Instant::now();
        let (rdd, action) = (c.job.build(), c.job.action());
        let t2 = Instant::now();
        let plan = d.plan(&rdd, action);
        let t3 = Instant::now();
        std::hint::black_box((&d, &plan));
        t.new_s += (t1 - t0).as_secs_f64();
        t.build_s += (t2 - t1).as_secs_f64();
        t.plan_s += (t3 - t2).as_secs_f64();
    }
    t
}

/// One finished (or failed) job: the model outputs the digest covers.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    pub cell: &'static str,
    /// Simulated job time (execution window), seconds.
    pub sim_s: f64,
    pub count: u64,
    pub aborted: bool,
}

/// Deterministic work and model results of one cell run.
#[derive(Default)]
pub struct CellRun {
    pub name: &'static str,
    pub events: u64,
    pub recomputes: u64,
    pub heap_bytes: u64,
    /// The cell's job, unless it panicked.
    pub job: Option<JobOutcome>,
    /// 1 when the job panicked, was aborted or returned a wrong count.
    pub failed: u32,
    pub panic: Option<String>,
    /// Traced runs only: the full event log and the sampler's recorder.
    pub trace: Vec<TimedEvent>,
    pub recorder: Option<Recorder>,
}

/// One pass over a workload's cells.
pub struct Pass {
    pub host_s: f64,
    pub cells: Vec<CellRun>,
}

impl Pass {
    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// One job per cell.
    pub fn attempted(&self) -> u32 {
        self.cells.len() as u32
    }

    pub fn failed(&self) -> u32 {
        self.cells.iter().map(|c| c.failed).sum()
    }

    pub fn jobs(&self) -> impl Iterator<Item = &JobOutcome> {
        self.cells.iter().filter_map(|c| c.job.as_ref())
    }

    /// FNV-1a over every model output of the pass: per-job simulated time,
    /// count and abort flag, plus per-cell event counts. Passes of one
    /// seed must agree exactly, traced or not.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.cells {
            h.str(c.name);
            h.u64(c.events);
            if let Some(j) = &c.job {
                h.u64(j.sim_s.to_bits());
                h.u64(j.count);
                h.u64(j.aborted as u64);
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self.u64(s.len() as u64);
    }
}

fn panic_text(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

fn run_cell(c: &Cell) -> CellRun {
    let mut run = CellRun {
        name: c.name,
        failed: 1,
        ..CellRun::default()
    };
    let mut d = Driver::new(c.spec.clone(), c.cfg.clone());
    let result = catch_unwind(AssertUnwindSafe(|| {
        let (out, m) = d.run(&c.job.build(), c.job.action());
        JobOutcome {
            cell: c.name,
            sim_s: m.job_time(),
            count: out.count,
            aborted: out.aborted,
        }
    }));
    match result {
        Ok(job) => {
            run.failed = (job.aborted || !c.expect.admits(job.count)) as u32;
            run.job = Some(job);
        }
        Err(e) => run.panic = Some(panic_text(e)),
    }
    run.events = d.engine_steps();
    run.recomputes = d.world().net.recomputes;
    run.heap_bytes = d.heap_estimate_bytes();
    run.trace = d.take_trace();
    run.recorder = d.recorder().cloned();
    run
}

/// Run every cell of a workload once, timing the whole pass.
pub fn pass(cells: &[Cell]) -> Pass {
    let t0 = Instant::now();
    let runs: Vec<CellRun> = cells.iter().map(run_cell).collect();
    Pass {
        host_s: t0.elapsed().as_secs_f64(),
        cells: runs,
    }
}
