//! The driver: submits jobs against a persistent simulated cluster.
//!
//! A [`Driver`] owns the simulation. Jobs run back-to-back on the same
//! cluster state, so cached RDDs persist across jobs — exactly how the LR
//! benchmark reuses its parsed input across iterations.

use crate::config::EngineConfig;
use crate::dag::{build_plan, render_plan, JobPlan};
use crate::metrics::JobMetrics;
use crate::rdd::{Action, Rdd};
use crate::tenancy::{FinishedJob, StreamSpec};
use crate::world::{Ev, JobOutput, SimWorld};
use memres_cluster::ClusterSpec;
use memres_des::sim::Simulation;
use memres_des::time::SimTime;

pub struct Driver {
    sim: Simulation<SimWorld>,
}

impl Driver {
    /// Build a driver, panicking on an invalid configuration. Prefer
    /// [`Driver::try_new`] where the config comes from user input.
    pub fn new(spec: ClusterSpec, cfg: EngineConfig) -> Driver {
        match Driver::try_new(spec, cfg) {
            Ok(d) => d,
            Err(e) => panic!("invalid engine configuration: {e}"),
        }
    }

    /// Build a driver after validating `cfg` against the cluster shape;
    /// returns a descriptive error instead of simulating a nonsense cluster.
    pub fn try_new(spec: ClusterSpec, cfg: EngineConfig) -> Result<Driver, String> {
        spec.validate()?;
        cfg.validate(spec.workers)?;
        let world = SimWorld::new(spec, cfg);
        let mut sim = Simulation::new(world);
        sim.max_steps = 500_000_000;
        if sim.model.cfg.speed_sigma > 0.0 {
            let period = sim.model.cfg.speed_resample;
            sim.schedule_after(period, Ev::SpeedResample);
        }
        Ok(Driver { sim })
    }

    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Enable or disable the strict event-discipline check: when on, any
    /// event scheduled before the current simulation time panics instead of
    /// being clamped (the dynamic counterpart of the `event-past` lint,
    /// DESIGN.md §4.15). Defaults to on in debug builds.
    pub fn set_strict_schedule(&mut self, strict: bool) {
        self.sim.set_strict_schedule(strict);
    }

    /// Oracle hook, not a setting: move this driver onto the reference
    /// `BinaryHeap` event calendar. Both calendars pop in identical
    /// `(time, seq)` order, so every result is unchanged; the determinism
    /// tests and the fuzz harness's export oracle run a job on each and
    /// compare the bytes.
    pub fn use_heap_queue(&mut self) {
        self.sim.use_legacy_queue();
    }

    pub fn world(&self) -> &SimWorld {
        &self.sim.model
    }

    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.sim.model
    }

    /// Build the plan an action would run (cache-aware), without running it.
    pub fn plan(&self, rdd: &Rdd, action: Action) -> JobPlan {
        build_plan(rdd, action, &self.sim.model.blockmgr.materialized())
    }

    /// Pretty-print the execution plan (paper Fig 3/4 style).
    pub fn explain(&self, rdd: &Rdd, action: Action) -> String {
        render_plan(&self.plan(rdd, action))
    }

    /// Run `action` on `rdd` to completion; returns the result and the
    /// job's task-level metrics.
    pub fn run(&mut self, rdd: &Rdd, action: Action) -> (JobOutput, JobMetrics) {
        let plan = self.plan(rdd, action);
        let start = self.sim.now();
        // Submit via a synthetic event turn.
        let mut out = memres_des::Outbox::standalone(start);
        self.sim.model.submit_job(start, plan, &mut out);
        self.sim.drain_outbox(out);
        while !self.sim.model.job_done {
            assert!(
                self.sim.step(),
                "simulation drained before job completion (deadlock?)"
            );
        }
        let fin = self
            .sim
            .model
            .take_finished()
            .expect("job finished without result");
        (fin.output, fin.metrics)
    }

    /// Run a multi-tenant job stream to completion: seed the arrival
    /// process, drive the simulation until every arrival has been admitted,
    /// executed and retired, and return the finished jobs in completion
    /// order. Feed the result to [`crate::tenancy::TenantSlo::compute`] for
    /// per-tenant queueing-delay / latency / slowdown summaries.
    pub fn run_stream(&mut self, spec: StreamSpec) -> Vec<FinishedJob> {
        let start = self.sim.now();
        let mut out = memres_des::Outbox::standalone(start);
        self.sim.model.start_stream(start, spec, &mut out);
        self.sim.drain_outbox(out);
        while !self.sim.model.job_done {
            assert!(
                self.sim.step(),
                "simulation drained before stream completion (deadlock?)"
            );
        }
        self.sim.model.drain_finished()
    }

    /// Convenience: run and return only the metrics.
    pub fn run_for_metrics(&mut self, rdd: &Rdd, action: Action) -> JobMetrics {
        self.run(rdd, action).1
    }

    /// [`Driver::run_stream`] with the fuzz harness's error discipline:
    /// calendar drain and event-budget exhaustion come back as `Err`, and
    /// every `audit_every` events the live engine state is cross-checked
    /// against independent reimplementations. The multi-job fuzz oracles
    /// (DESIGN.md §4.13/§4.14) drive streams through this entry point so a
    /// misbehaving scheduler cannot panic the fuzzer.
    pub fn run_stream_audited(
        &mut self,
        spec: StreamSpec,
        audit_every: u64,
    ) -> Result<Vec<FinishedJob>, String> {
        let start = self.sim.now();
        let mut out = memres_des::Outbox::standalone(start);
        self.sim.model.start_stream(start, spec, &mut out);
        self.sim.drain_outbox(out);
        let mut since_audit = 0u64;
        while !self.sim.model.job_done {
            match self.sim.try_step() {
                Ok(true) => {}
                Ok(false) => {
                    return Err(
                        "simulation drained before stream completion (deadlock?)".to_string()
                    )
                }
                Err(e) => {
                    return Err(format!(
                        "event budget exhausted (max_steps={}) before stream completion",
                        e.max_steps
                    ))
                }
            }
            since_audit += 1;
            if audit_every > 0 && since_audit >= audit_every {
                since_audit = 0;
                self.sim.model.audit_invariants().map_err(|e| {
                    format!(
                        "audit failed at t={:.6}s: {e}",
                        self.sim.now().as_secs_f64()
                    )
                })?;
            }
        }
        Ok(self.sim.model.drain_finished())
    }

    /// Run `action` on `rdd` like [`Driver::run`], but built to survive a
    /// misbehaving engine: calendar drain and event-budget exhaustion come
    /// back as `Err` instead of panicking, and every `audit_every` processed
    /// events the live engine state is cross-checked against independent
    /// reimplementations ([`SimWorld::audit_invariants`]) — the fuzz
    /// harness's entry point (DESIGN.md §4.13). `audit_every == 0` disables
    /// the periodic audits but keeps the non-panicking error paths.
    pub fn run_audited(
        &mut self,
        rdd: &Rdd,
        action: Action,
        audit_every: u64,
    ) -> Result<(JobOutput, JobMetrics), String> {
        let plan = self.plan(rdd, action);
        let start = self.sim.now();
        let mut out = memres_des::Outbox::standalone(start);
        self.sim.model.submit_job(start, plan, &mut out);
        self.sim.drain_outbox(out);
        let mut since_audit = 0u64;
        while !self.sim.model.job_done {
            match self.sim.try_step() {
                Ok(true) => {}
                Ok(false) => {
                    return Err("simulation drained before job completion (deadlock?)".to_string())
                }
                Err(e) => {
                    return Err(format!(
                        "event budget exhausted (max_steps={}) before job completion",
                        e.max_steps
                    ))
                }
            }
            since_audit += 1;
            if audit_every > 0 && since_audit >= audit_every {
                since_audit = 0;
                self.sim.model.audit_invariants().map_err(|e| {
                    format!(
                        "audit failed at t={:.6}s: {e}",
                        self.sim.now().as_secs_f64()
                    )
                })?;
            }
        }
        if audit_every > 0 {
            self.sim
                .model
                .audit_invariants()
                .map_err(|e| format!("audit failed at job end: {e}"))?;
        }
        let fin = self
            .sim
            .model
            .take_finished()
            .ok_or_else(|| "job finished without result".to_string())?;
        Ok((fin.output, fin.metrics))
    }

    /// Cap the event budget for subsequent runs (the fuzz harness lowers
    /// this from the 500M default so runaway specs fail fast as an `Err`
    /// from [`Driver::run_audited`] instead of burning CI minutes).
    pub fn set_max_steps(&mut self, max_steps: u64) {
        self.sim.max_steps = max_steps;
    }

    /// Events processed by the simulation engine so far (self-profiling).
    pub fn engine_steps(&self) -> u64 {
        self.sim.steps()
    }

    /// Drain the structured event log accumulated so far (empty when
    /// tracing is off). See DESIGN.md §4.11.
    pub fn take_trace(&mut self) -> Vec<memres_trace::TimedEvent> {
        self.sim.model.take_trace()
    }

    /// Number of trace events buffered (without draining them).
    pub fn trace_len(&self) -> usize {
        self.sim.model.trace_len()
    }

    /// The time-series recorder accumulated so far (`None` when
    /// `cfg.metrics` is off). See DESIGN.md §4.16.
    pub fn recorder(&self) -> Option<&memres_metrics::Recorder> {
        self.sim.model.recorder()
    }

    /// Rough peak-heap estimate for engine self-profiling (arena capacities
    /// plus trace log plus shuffle accounting; not an allocator hook).
    pub fn heap_estimate_bytes(&self) -> u64 {
        self.sim.model.heap_estimate_bytes()
    }
}
