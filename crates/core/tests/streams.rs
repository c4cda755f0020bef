//! Multi-tenant job streams (DESIGN.md §4.14): isolation and determinism.
//!
//! The two contracts the tenancy layer must hold:
//!
//! 1. **Output isolation** — every job of an interleaved stream produces
//!    output byte-identical to the same job run alone on a fresh cluster.
//!    Concurrent residency shares slots and wall-clock, never data.
//! 2. **Replay determinism** — a whole stream (arrivals, admissions,
//!    per-job metrics, SLO rollups) serializes to identical bytes across
//!    executor-thread counts and event-queue implementations, extending the
//!    single-job determinism suite to concurrent DAGs.

use memres_core::export;
use memres_core::prelude::*;
use memres_core::{
    ArrivalProcess, FinishedJob, InterJobPolicy, JobFactory, StreamSpec, TenantSlo, TenantSpec,
};
use std::sync::Arc;

/// Tenant A: a shuffle-heavy wordcount, parameterized by `k` so each job in
/// the stream has distinct data (and therefore a distinct correct answer).
fn wordcount(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..400)
        .map(|i| {
            (
                Value::Null,
                Value::str(format!("w{}", (i + k as u64) % (17 + k as u64))),
            )
        })
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 8))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(4), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    (rdd, Action::Collect)
}

/// Tenant B: a narrow scan-and-reduce (no shuffle) — a different DAG shape
/// so the resident set mixes phases.
fn scan_reduce(k: u32) -> (Rdd, Action) {
    let recs: Vec<Record> = (0..300)
        .map(|i| (Value::I64(i), Value::I64(i + k as i64)))
        .collect();
    let rdd =
        Rdd::source(Dataset::from_records(recs, 6)).map("double", SizeModel::scan(), |(key, v)| {
            (key, Value::I64(v.as_i64() * 2))
        });
    (
        rdd,
        Action::Reduce(Arc::new(|a, b| Value::I64(a.as_i64() + b.as_i64()))),
    )
}

fn stream_spec(policy: InterJobPolicy, seed: u64) -> StreamSpec {
    StreamSpec::new(
        vec![
            TenantSpec::new(
                "wordcount",
                3,
                // Tight period: arrivals outpace job latency, forcing
                // overlap and admission queueing.
                ArrivalProcess::Periodic { period_secs: 0.01 },
                Arc::new(wordcount),
            ),
            TenantSpec::new(
                "scan",
                3,
                ArrivalProcess::OpenExp { mean_secs: 0.02 },
                Arc::new(scan_reduce),
            ),
        ],
        policy,
        seed,
    )
}

fn base_cfg() -> EngineConfig {
    EngineConfig::default().homogeneous()
}

/// Render a finished stream to bytes: lifecycle CSV + per-job metric JSON +
/// SLO rollup. Any nondeterminism in arrivals, admission order, dispatch
/// interleaving or metrics shows up as a byte diff.
fn render(jobs: &[FinishedJob], tenants: usize) -> String {
    let mut s = export::stream_jobs_csv(jobs);
    let names = vec!["wordcount".to_string(), "scan".to_string()];
    s += &export::tenant_slo_json(&TenantSlo::compute(jobs, tenants), &names, &[]);
    for j in jobs {
        s += &format!("\njob {} output {:?}\n", j.id, j.output);
        s += &export::job_json(&j.metrics);
    }
    s
}

#[test]
fn stream_jobs_match_isolated_runs_byte_for_byte() {
    let mut d = Driver::new(memres_cluster::tiny(6), base_cfg());
    let finished = d.run_stream(stream_spec(InterJobPolicy::FairShare, 11));
    assert_eq!(finished.len(), 6, "all six jobs retire");

    // The stream genuinely interleaved: some job was admitted before an
    // earlier-admitted one finished.
    let overlap = finished.iter().any(|a| {
        finished
            .iter()
            .any(|b| b.id != a.id && b.admitted < a.finished && a.admitted < b.finished)
    });
    assert!(overlap, "arrival process must yield concurrent residency");

    // Output isolation: each job's result equals its isolated run.
    let factories: [JobFactory; 2] = [Arc::new(wordcount), Arc::new(scan_reduce)];
    let mut seen = [0u32; 2];
    // Finished jobs come back in completion order; per tenant, job k is the
    // k-th ADMISSION. Admission is FIFO per tenant, so sort by admission.
    let mut by_admission: Vec<&FinishedJob> = finished.iter().collect();
    by_admission.sort_by(|a, b| a.admitted.cmp(&b.admitted).then(a.id.cmp(&b.id)));
    for j in by_admission {
        let t = j.tenant as usize;
        let slot = seen.get_mut(t).expect("tenant id in range");
        let k = *slot;
        *slot += 1;
        let (rdd, action) = factories.get(t).expect("tenant id in range")(k);
        let mut iso = Driver::new(memres_cluster::tiny(6), base_cfg());
        let (iso_out, _) = iso.run(&rdd, action);
        assert_eq!(
            format!("{:?}", j.output),
            format!("{iso_out:?}"),
            "tenant {t} job {k}: stream output must equal isolated run"
        );
        assert!(!j.output.aborted);
    }

    // SLO rollup sanity: both tenants ran 3 jobs; latencies are positive
    // and ordered (p50 <= p99); queueing delay is finite.
    let slo = TenantSlo::compute(&finished, 2);
    for s in &slo {
        assert_eq!(s.jobs, 3);
        assert_eq!(s.aborted, 0);
        assert!(s.mean_latency > 0.0);
        assert!(s.p50_latency <= s.p99_latency);
        assert!(s.mean_queue_delay >= 0.0);
    }
}

#[test]
fn stream_replay_is_byte_identical_across_threads_and_queues() {
    // Satellite of the determinism suite (PR-3/PR-6): the interleaved
    // multi-job run must serialize identically across executor_threads
    // 1 vs 4 and the calendar vs legacy event queue.
    let run = |threads: usize, legacy: bool| {
        let cfg = base_cfg().with_executor_threads(threads);
        let mut d = Driver::new(memres_cluster::tiny(6), cfg);
        if legacy {
            d.use_heap_queue();
        }
        let finished = d.run_stream(stream_spec(InterJobPolicy::FairShare, 42));
        render(&finished, 2)
    };
    let baseline = run(1, false);
    assert!(!baseline.is_empty());
    for (threads, legacy) in [(4, false), (1, true), (4, true)] {
        assert_eq!(
            baseline,
            run(threads, legacy),
            "stream bytes diverged at threads={threads} legacy={legacy}"
        );
    }
}

#[test]
fn capacity_policy_and_admission_cap_honour_guarantees() {
    // A max_concurrent cap forces queueing (visible queue delay) and the
    // capacity policy keeps serving both tenants; closed-loop arrivals
    // chain off completions so the stream still drains fully.
    let spec = StreamSpec::new(
        vec![
            TenantSpec::new(
                "wordcount",
                2,
                ArrivalProcess::Periodic { period_secs: 0.5 },
                Arc::new(wordcount),
            ),
            TenantSpec::new(
                "scan",
                2,
                ArrivalProcess::Closed { think_secs: 0.5 },
                Arc::new(scan_reduce),
            ),
        ],
        InterJobPolicy::Capacity {
            guarantees: vec![2, 2],
        },
        7,
    )
    .with_max_concurrent(1);
    let mut d = Driver::new(memres_cluster::tiny(4), base_cfg());
    let finished = d.run_stream(spec);
    assert_eq!(finished.len(), 4);
    assert!(
        finished.iter().any(|j| j.queue_delay() > 0.0),
        "cap of one resident job must force admission queueing"
    );
    // With the cap, at most one job is ever resident: windows cannot
    // overlap between admission and completion.
    for a in &finished {
        for b in &finished {
            if a.id != b.id {
                assert!(
                    a.finished <= b.admitted || b.finished <= a.admitted,
                    "max_concurrent=1 must serialize execution"
                );
            }
        }
    }
    // Trace-driven arrivals also drain (truncated to the trace length).
    let spec = StreamSpec::new(
        vec![TenantSpec::new(
            "scan",
            5,
            ArrivalProcess::Trace(vec![0.0, 0.25]),
            Arc::new(scan_reduce),
        )],
        InterJobPolicy::Fifo,
        1,
    );
    let mut d = Driver::new(memres_cluster::tiny(4), base_cfg());
    let finished = d.run_stream(spec);
    assert_eq!(finished.len(), 2, "trace shorter than `jobs` truncates");
}
