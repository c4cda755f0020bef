//! `memres-perfbench --workload <name|all> --seed <n> --seconds <s> [--trace <0|1>]`
//!
//! `--trace 0` re-executes this binary as one child process per workload.
//! The child times whole passes, each followed by batches of set-ups, for
//! `--seconds` and reports its own peak RSS; the parent prints the end-to-end metrics. `--trace 1` runs
//! one untraced and one fully traced pass in-process, then drives the
//! des/net/storage/lustre layers directly, sized from the trace, and prints
//! the per-layer metrics. Without `--trace`, both runs are made. The last
//! line of stdout is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. See README.md.

use memres_perfbench::drives;
use memres_perfbench::workload::{self, Cell, JobOutcome, Pass, RunCfg, SetupTimes, Workload};
use memres_trace::analyze::attribute;
use memres_trace::TraceEvent;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Passes every untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Least host time one batch of set-ups takes. One set-up lasts from about
/// 0.15 ms (`paper_shuffle`) to 3 ms (`scale_dispatch`); a batch's mean
/// averages out timer and allocator noise that single set-ups carry.
const SETUP_BATCH_S: f64 = 0.01;
/// Set-up batches after each untraced pass take this share of its time, so
/// set-up is sampled across the whole run, not in one window of it.
const SETUP_SHARE: f64 = 0.1;
/// Set-up batching time of the traced run, which makes one untraced pass.
const TRACED_SETUP_S: f64 = 1.0;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Runs to make per workload: untraced (`false`), traced (`true`).
    modes: Vec<bool>,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut modes, mut child) =
        (None, 1u64, 20.0f64, vec![false, true], false);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if val == "all" => workloads = Some(workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
            }
            "--trace" => {
                modes = match val.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args {
        workloads,
        seed,
        seconds,
        modes,
        child,
    })
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Batches of set-ups for at least `budget_s` of host time (at least one
/// batch); one entry per batch, the mean of its set-ups.
fn setup_batches(cells: &[Cell], budget_s: f64) -> Vec<SetupTimes> {
    let t0 = Instant::now();
    let mut batches = Vec::new();
    while batches.is_empty() || t0.elapsed().as_secs_f64() < budget_s {
        let (b0, mut sum, mut n) = (Instant::now(), SetupTimes::default(), 0.0);
        while n == 0.0 || b0.elapsed().as_secs_f64() < SETUP_BATCH_S {
            let s = workload::setup_once(cells);
            sum.new_s += s.new_s;
            sum.build_s += s.build_s;
            sum.plan_s += s.plan_s;
            n += 1.0;
        }
        batches.push(SetupTimes {
            new_s: sum.new_s / n,
            build_s: sum.build_s / n,
            plan_s: sum.plan_s / n,
        });
    }
    batches
}

fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

// ------------------------------------------------------------ results ----

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        if !value.is_finite() {
            self.fail(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    fn print_table(&self, title: &str) {
        println!("== {title} ==");
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
    }

    fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `put` has failed the run for a non-finite value; keep the JSON valid.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

// ------------------------------------------------------- untraced run ----

/// Child side of `--trace 0`: whole passes, each followed by set-up
/// batches, for `seconds`, then this process's peak RSS, as lines on stdout.
fn child(w: Workload, seed: u64, seconds: f64) {
    let rc = RunCfg {
        seed,
        threads: threads(),
        traced: false,
    };
    let cells = workload::cells(w, rc);
    let t0 = Instant::now();
    let mut passes = 0usize;
    loop {
        let p = workload::pass(&cells);
        println!(
            "pass {:?} {} {} {} {:016x}",
            p.host_s,
            p.events(),
            p.attempted(),
            p.failed(),
            p.digest()
        );
        for c in p.cells.iter().filter_map(|c| c.panic.as_ref()) {
            println!("panic {}", c.replace('\n', " "));
        }
        for s in setup_batches(&cells, SETUP_SHARE * p.host_s) {
            println!("setup {:?}", s.total());
        }
        passes += 1;
        let spent = t0.elapsed().as_secs_f64();
        if passes >= MIN_PASSES && spent + spent / passes as f64 > seconds {
            break;
        }
    }
    println!("vmhwm_kb {}", vm_hwm_kb());
}

fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", "--workload", w.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} child exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (mut setup, mut host, mut events, mut digests) = (vec![], vec![], vec![], vec![]);
    let mut hwm_kb = 0u64;
    let mut r = Report::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad child line: {line}"))
        };
        match f.first().copied() {
            Some("setup") => setup.push(num(1)?),
            Some("pass") => {
                host.push(num(1)?);
                events.push(num(2)? as u64);
                r.attempted += num(3)? as u64;
                r.failed += num(4)? as u64;
                digests.push(f.get(5).copied().unwrap_or("").to_string());
            }
            Some("panic") => r.fail(format!("job panicked: {}", &line[6..])),
            Some("vmhwm_kb") => hwm_kb = num(1)? as u64,
            _ => return Err(format!("unexpected child line: {line}")),
        }
    }
    if host.is_empty() || hwm_kb == 0 {
        return Err(format!("{} child reported no passes", w.name()));
    }
    if r.failed > 0 {
        r.fail(format!("{} of {} jobs failed", r.failed, r.attempted));
    }
    if digests.iter().any(|d| d != &digests[0]) {
        r.fail(format!("passes disagree on model outputs: {digests:?}"));
    }
    let host_s = median(&host);
    r.notes.push(format!(
        "{} passes, host_s min {:.4} max {:.4}; {} set-up batches; output digest {}; fail_frac {}",
        host.len(),
        host.iter().copied().fold(f64::INFINITY, f64::min),
        host.iter().copied().fold(0.0, f64::max),
        setup.len(),
        digests[0],
        r.failed as f64 / r.attempted.max(1) as f64
    ));
    r.put("host_s", "s", host_s);
    r.put("events_per_s", "1/s", events[0] as f64 / host_s);
    r.put("peak_rss_mb", "MB", hwm_kb as f64 / 1024.0);
    r.put("setup_s", "s", median(&setup));
    r.put(
        "ok_frac",
        "ratio",
        1.0 - r.failed as f64 / r.attempted.max(1) as f64,
    );
    Ok(r)
}

// --------------------------------------------------------- traced run ----

/// Counts the traced pass reports, summed over its cells.
#[derive(Default)]
struct TraceCounts {
    launches: u64,
    flows: u64,
    flow_bytes: f64,
    lock_acquires: u64,
    gc_starts: u64,
    delay_waits: u64,
    elb_declines: u64,
    cad_gates: u64,
    retries: u64,
}

fn count_trace(p: &Pass) -> TraceCounts {
    let mut c = TraceCounts::default();
    for e in p.cells.iter().flat_map(|c| c.trace.iter()) {
        match &e.ev {
            TraceEvent::TaskLaunched { .. } => c.launches += 1,
            TraceEvent::FlowStart { .. } => c.flows += 1,
            TraceEvent::FlowEnd { bytes, .. } => c.flow_bytes += bytes.get(),
            TraceEvent::LockAcquire { .. } => c.lock_acquires += 1,
            TraceEvent::GcStart { .. } => c.gc_starts += 1,
            TraceEvent::DelayWait { .. } => c.delay_waits += 1,
            TraceEvent::ElbDecline { .. } => c.elb_declines += 1,
            TraceEvent::CadGate { .. } => c.cad_gates += 1,
            TraceEvent::TaskRetried { .. } => c.retries += 1,
            _ => {}
        }
    }
    c
}

/// Largest sample of a sampler series over every cell (0 when unsampled).
fn sampled_max(p: &Pass, series: &str) -> f64 {
    p.cells
        .iter()
        .filter_map(|c| c.recorder.as_ref())
        .flat_map(|r| r.sorted_series())
        .filter(|s| s.name == series && s.samples() > 0)
        .map(|s| s.hist.max())
        .fold(0.0, f64::max)
}

fn traced(w: Workload, seed: u64) -> Report {
    const MB: f64 = 1024.0 * 1024.0;
    let rc = RunCfg {
        seed,
        threads: threads(),
        traced: false,
    };
    let plain_cells = workload::cells(w, rc);
    let plain = workload::pass(&plain_cells);
    let traced_cells = workload::cells(w, RunCfg { traced: true, ..rc });
    let full = workload::pass(&traced_cells);
    let reps = setup_batches(&plain_cells, TRACED_SETUP_S);

    let mut r = Report::new();
    r.attempted = (plain.attempted() + full.attempted()) as u64;
    r.failed = (plain.failed() + full.failed()) as u64;
    if r.failed > 0 {
        r.fail(format!("{} of {} jobs failed", r.failed, r.attempted));
    }
    for c in plain.cells.iter().chain(&full.cells) {
        if let Some(msg) = &c.panic {
            r.fail(format!("{} panicked: {msg}", c.name));
        }
    }
    let jobs: Vec<&JobOutcome> = plain.jobs().collect();
    if jobs != full.jobs().collect::<Vec<_>>() {
        r.fail("tracing changed the model's job outcomes".to_string());
    }

    let counts = count_trace(&full);
    let events = plain.events();
    let queue_len_max = sampled_max(&full, "engine_queue_len");
    let active_flows_max = sampled_max(&full, "net_active_flows");
    let mean_flow_bytes = if counts.flows > 0 {
        counts.flow_bytes / counts.flows as f64
    } else {
        64.0 * MB
    };
    let spec = traced_cells[0].spec();

    // Layer drives, sized from the traced pass.
    let drive_seed = seed ^ 0xd21e;
    let wave = (active_flows_max as usize).clamp(16, 1024);
    let drives = std::panic::catch_unwind(|| {
        let q = drives::queue(
            queue_len_max as usize,
            events.clamp(500_000, 4_000_000),
            drive_seed,
        );
        let net = drives::net(
            spec,
            drives::NetSize {
                wave,
                waves: ((counts.flows as usize) / wave).clamp(1, 16),
                mean_bytes: mean_flow_bytes,
            },
            drive_seed,
            false,
        );
        // One storage operation moves one shuffle bucket; rack-aggregated
        // flows carry many, so their mean is capped at a split's size.
        let bucket_bytes = mean_flow_bytes.min(256.0 * MB);
        let ram = drives::fs(drives::ram_fs(), 4096, 16, bucket_bytes, drive_seed);
        let ssd = drives::fs(drives::ssd_fs(), 1024, 16, drives::SSD_OP_BYTES, drive_seed);
        let lustre = drives::lustre(
            counts.lock_acquires.clamp(1_000, 50_000),
            2,
            spec.workers,
            bucket_bytes,
            drive_seed,
        );
        (q, net, ram, ssd, lustre)
    });
    let Ok((q, net, ram, ssd, lustre)) = drives else {
        r.fail("a layer drive lost work".to_string());
        return r;
    };

    let att = full.cells.iter().map(|c| attribute(&c.trace)).fold(
        Default::default(),
        |a: [f64; 5], x| {
            [
                a[0] + x.compute.as_secs_f64(),
                a[1] + x.store.as_secs_f64(),
                a[2] + x.fetch.as_secs_f64(),
                a[3] + x.lock_wait.as_secs_f64(),
                a[4] + x.gc_stall.as_secs_f64(),
            ]
        },
    );
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());

    r.put("des.events", "count", events as f64);
    r.put("des.queue_push_ns", "ns", q.push_ns);
    r.put("des.queue_pop_ns", "ns", q.pop_ns);
    r.put("des.queue_len_max", "count", queue_len_max);
    r.put(
        "des.queue_overflow_max",
        "count",
        sampled_max(&full, "engine_queue_overflow"),
    );
    r.put(
        "net.recomputes",
        "count",
        plain.cells.iter().map(|c| c.recomputes).sum::<u64>() as f64,
    );
    r.put("net.flows", "count", counts.flows as f64);
    r.put("net.flow_bytes", "GB", counts.flow_bytes / (1024.0 * MB));
    r.put("net.active_flows_max", "count", active_flows_max);
    r.put("net.next_event_ns", "ns", net.next_event_ns);
    r.put("net.poll_ns", "ns", net.poll_ns);
    r.put("net.push_chunk_ns", "ns", net.push_chunk_ns);
    r.put("net.open_flow_ns", "ns", net.open_flow_ns);
    r.put("storage.ram_io_ns", "ns", ram.io_ns);
    r.put("storage.ssd_io_ns", "ns", ssd.io_ns);
    r.put("storage.ssd_gc_events", "count", counts.gc_starts as f64);
    r.put(
        "storage.ssd_dirty_max",
        "MB",
        sampled_max(&full, "storage_ssd_dirty_bytes") / MB,
    );
    r.put("lustre.write_ns", "ns", lustre.write_ns);
    r.put("lustre.read_ns", "ns", lustre.read_ns);
    r.put("lustre.append_ns", "ns", lustre.append_ns);
    r.put("lustre.lock_acquires", "count", counts.lock_acquires as f64);
    r.put("core.launches", "count", counts.launches as f64);
    r.put(
        "core.host_us_per_launch",
        "us",
        plain.host_s * 1e6 / counts.launches.max(1) as f64,
    );
    r.put("core.delay_waits", "count", counts.delay_waits as f64);
    r.put("core.elb_declines", "count", counts.elb_declines as f64);
    r.put("core.cad_gates", "count", counts.cad_gates as f64);
    r.put("core.retries", "count", counts.retries as f64);
    r.put("core.new_s", "s", med(|s| s.new_s));
    r.put("core.plan_s", "s", med(|s| s.plan_s));
    r.put(
        "core.heap_estimate_mb",
        "MB",
        plain.cells.iter().map(|c| c.heap_bytes).max().unwrap_or(0) as f64 / MB,
    );
    r.put("workloads.build_s", "s", med(|s| s.build_s));
    r.put(
        "model.sim_job_s",
        "s",
        jobs.iter().map(|j| j.sim_s).sum::<f64>(),
    );
    for (name, v) in ["compute", "store", "fetch", "lock_wait", "gc_stall"]
        .iter()
        .zip(att)
    {
        r.put(&format!("model.crit.{name}_s"), "s", v);
    }
    r.put("trace.overhead_ratio", "ratio", full.host_s / plain.host_s);
    r.notes.push(format!(
        "untraced pass {:.4} s, traced pass {:.4} s, {} trace events; drives: queue held at {}, \
         net {} flows in waves of {wave}, lustre {} files",
        plain.host_s,
        full.host_s,
        full.cells.iter().map(|c| c.trace.len()).sum::<usize>(),
        queue_len_max,
        net.flows,
        lustre.files,
    ));
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memres-perfbench: {e}");
            eprintln!(
                "usage: memres-perfbench --workload <paper_shuffle|scale_dispatch|all> \
                 --seed <n> --seconds <s> [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        child(args.workloads[0], args.seed, args.seconds);
        return ExitCode::SUCCESS;
    }
    let single = args.workloads.len() == 1;
    let mut total = Report::new();
    for (&w, &traced_run) in args
        .workloads
        .iter()
        .flat_map(|w| args.modes.iter().map(move |m| (w, m)))
    {
        let r = if traced_run {
            traced(w, args.seed)
        } else {
            match untraced(w, args.seed, args.seconds) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("memres-perfbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        r.print_table(&format!(
            "{} seed {} ({})",
            w.name(),
            args.seed,
            if traced_run {
                "traced, per layer"
            } else {
                "untraced, end to end"
            }
        ));
        total.correct &= r.correct;
        total.attempted += r.attempted;
        total.failed += r.failed;
        for m in r.metrics {
            let name = if single {
                m.name
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            total.metrics.push(Metric { name, ..m });
        }
    }
    println!("{}", total.json());
    ExitCode::SUCCESS
}
