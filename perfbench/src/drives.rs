//! Direct drives of the substrate layers' public functions, timed as host
//! nanoseconds per call.
//!
//! Each drive is sized from counts a traced workload pass reports (queue
//! length, flow count and bytes, lock acquires), so the timings describe
//! the layer under the load that workload puts on it. Every drive also
//! checks its own result, and panics when the layer loses work: a broken
//! layer must not be timed as a fast one.

use memres_cluster::{ClusterSpec, NodeId};
use memres_des::time::{SimDuration, SimTime};
use memres_des::{Bytes, EventQueue};
use memres_lustre::{Lustre, LustreConfig, LustreFile};
use memres_net::{Endpoint, Fabric, FlowNet};
use memres_storage::{CacheConfig, FileId, LocalFs, Op, RamDisk, Ssd};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic generator for drive inputs (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x05ee_d0fd_71e5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn ns_per(total_s: f64, calls: u64) -> f64 {
    total_s * 1e9 / calls.max(1) as f64
}

// ---------------------------------------------------------------- des ----

#[derive(Clone, Copy, Debug)]
pub struct QueueDrive {
    pub push_ns: f64,
    pub pop_ns: f64,
    /// Every event pushed, fill included.
    pub pushed: u64,
    /// Every event popped, final drain included.
    pub popped: u64,
}

/// Hold an `EventQueue` at `hold` pending events and time `ops` pop/push
/// pairs in batches: each popped event is rescheduled a random delay later,
/// as a simulation's events schedule their successors.
pub fn queue(hold: usize, ops: u64, seed: u64) -> QueueDrive {
    let hold = hold.max(2);
    let batch = (hold / 2).clamp(1, 1024);
    let mut rng = Rng::new(seed);
    // Delays spread the pending set over about `hold` microseconds.
    let span = hold as f64 * 2_000.0;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut pushed = 0u64;
    for _ in 0..hold {
        q.push(SimTime::from_nanos((rng.unit() * span) as u64), pushed);
        pushed += 1;
    }
    let mut popped = 0u64;
    let (mut push_s, mut pop_s) = (0.0, 0.0);
    let mut times = vec![SimTime::ZERO; batch];
    let mut delays = vec![0u64; batch];
    let mut last = SimTime::ZERO;
    let mut done = 0u64;
    while done < ops {
        let n = batch.min((ops - done) as usize);
        for d in delays.iter_mut().take(n) {
            *d = (rng.unit() * span) as u64 + 1;
        }
        let t0 = Instant::now();
        for t in times.iter_mut().take(n) {
            let (at, ev) = q.pop().expect("queue held above the batch size");
            black_box(ev);
            *t = at;
        }
        let t1 = Instant::now();
        // Successors are scheduled from the batch's clock, never before it.
        let now = times[n - 1];
        for (i, &d) in delays.iter().take(n).enumerate() {
            q.push(now + SimDuration::from_nanos(d), pushed + i as u64);
        }
        let t2 = Instant::now();
        pop_s += (t1 - t0).as_secs_f64();
        push_s += (t2 - t1).as_secs_f64();
        for &t in times.iter().take(n) {
            assert!(t >= last, "queue popped out of time order");
            last = t;
        }
        popped += n as u64;
        pushed += n as u64;
        done += n as u64;
    }
    while let Some((t, _)) = q.pop() {
        assert!(t >= last, "queue drained out of time order");
        last = t;
        popped += 1;
    }
    assert_eq!(pushed, popped, "event queue lost events");
    QueueDrive {
        push_ns: ns_per(push_s, ops),
        pop_ns: ns_per(pop_s, ops),
        pushed,
        popped,
    }
}

// ---------------------------------------------------------------- net ----

#[derive(Clone, Copy, Debug)]
pub struct NetDrive {
    pub open_flow_ns: f64,
    pub push_chunk_ns: f64,
    pub next_event_ns: f64,
    pub poll_ns: f64,
    pub flows: u64,
    pub pushed_bytes: f64,
    pub delivered_bytes: f64,
}

/// Shape of an all-to-all network drive.
#[derive(Clone, Copy, Debug)]
pub struct NetSize {
    /// Flows in one wave (all open at once).
    pub wave: usize,
    /// Waves run back to back.
    pub waves: usize,
    /// Mean bytes per flow; each flow gets 0.5–1.5× this.
    pub mean_bytes: f64,
}

/// Open a wave of auto-closing flows between all pairs of the cluster's
/// nodes (round-robin over the pairs), push one chunk on each, then drain
/// the wave through `next_event`/`poll`. With `audit`, the water-fill audit
/// runs after every poll; it always runs once the drive is drained.
pub fn net(spec: &ClusterSpec, size: NetSize, seed: u64, audit: bool) -> NetDrive {
    let mut rng = Rng::new(seed);
    let mut fnet: FlowNet<u64> = FlowNet::new();
    let fabric = Fabric::build(&mut fnet, spec);
    let n = spec.workers.max(2);
    let pairs = n as u64 * (n as u64 - 1);
    let mut pair = 0u64;
    let (mut open_s, mut push_s, mut next_s, mut poll_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut next_calls, mut poll_calls) = (0u64, 0u64);
    let (mut pushed, mut delivered) = (0.0, 0.0);
    let mut now = SimTime::ZERO;
    let mut tag = 0u64;
    for _ in 0..size.waves {
        let paths: Vec<_> = (0..size.wave)
            .map(|_| {
                let src = (pair % n as u64) as u32;
                let hop = 1 + (pair / n as u64) % (n as u64 - 1);
                let dst = ((src as u64 + hop) % n as u64) as u32;
                pair = (pair + 1) % pairs;
                fabric.path(Endpoint::Node(NodeId(src)), Endpoint::Node(NodeId(dst)))
            })
            .collect();
        let bytes: Vec<f64> = (0..size.wave)
            .map(|_| size.mean_bytes * (0.5 + rng.unit()))
            .collect();
        let t0 = Instant::now();
        let ids: Vec<_> = paths
            .into_iter()
            .map(|p| fnet.open_flow(now, p, true))
            .collect();
        let t1 = Instant::now();
        for (i, (&id, &b)) in ids.iter().zip(&bytes).enumerate() {
            fnet.push_chunk(now, id, Bytes(b), tag + i as u64);
        }
        let t2 = Instant::now();
        open_s += (t1 - t0).as_secs_f64();
        push_s += (t2 - t1).as_secs_f64();
        pushed += bytes.iter().sum::<f64>();
        let mut left = size.wave;
        while left > 0 {
            let t0 = Instant::now();
            let at = fnet.next_event();
            let t1 = Instant::now();
            let at = at.expect("flows pending but the network reports no next event");
            let done = fnet.poll(at);
            let t2 = Instant::now();
            next_s += (t1 - t0).as_secs_f64();
            poll_s += (t2 - t1).as_secs_f64();
            next_calls += 1;
            poll_calls += 1;
            now = at;
            for d in &done {
                let i = d
                    .tag
                    .checked_sub(tag)
                    .expect("delivery from an earlier wave") as usize;
                delivered += bytes[i];
            }
            left -= done.len();
            if audit {
                fnet.audit_waterfill().expect("water-fill audit");
            }
        }
        tag += size.wave as u64;
    }
    assert_eq!(fnet.active_flows(), 0, "flows still active after the drain");
    fnet.audit_waterfill()
        .expect("water-fill audit at drive end");
    assert!(
        (pushed - delivered).abs() <= 1e-9 * pushed.max(1.0),
        "network delivered {delivered} of {pushed} bytes"
    );
    let flows = (size.wave * size.waves) as u64;
    NetDrive {
        open_flow_ns: ns_per(open_s, flows),
        push_chunk_ns: ns_per(push_s, flows),
        next_event_ns: ns_per(next_s, next_calls),
        poll_ns: ns_per(poll_s, poll_calls),
        flows,
        pushed_bytes: pushed,
        delivered_bytes: delivered,
    }
}

// ------------------------------------------------------------ storage ----

#[derive(Clone, Copy, Debug)]
pub struct FsDrive {
    /// Host ns per user operation: its write or read call plus its share of
    /// the poll/next_event calls that complete it.
    pub io_ns: f64,
    pub ops: u64,
    pub written: f64,
    pub read: f64,
}

/// Mean SSD operation size. 1,024 files of it stay inside the 6 GB page
/// cache, the regime the paper cells run the SSD store in: past it, writes
/// go through to the device and reading such a file back panics the mount
/// (see `tests/drives.rs`, `ssd_mount_reads_back_past_a_saturated_cache`).
pub const SSD_OP_BYTES: f64 = 4.0 * 1024.0 * 1024.0;

/// The engine's per-node mounts: a RAMDisk without page cache, and an SSD
/// behind a 6 GB page cache.
pub fn ram_fs() -> LocalFs {
    LocalFs::new(Box::new(RamDisk::hyperion()), 1e15, None)
}

pub fn ssd_fs() -> LocalFs {
    LocalFs::new(
        Box::new(Ssd::hyperion()),
        1e15,
        Some(CacheConfig {
            capacity: 6.0 * 1024.0 * 1024.0 * 1024.0,
            ..CacheConfig::hyperion()
        }),
    )
}

/// Write `files` files of about `mean_bytes` each, `depth` at a time, and
/// read each one back after its write completes; run the mount's
/// poll/next_event loop until every operation has completed.
pub fn fs(mut fs: LocalFs, files: u64, depth: u64, mean_bytes: f64, seed: u64) -> FsDrive {
    let mut rng = Rng::new(seed);
    let sizes: Vec<f64> = (0..files)
        .map(|_| mean_bytes * (0.5 + rng.unit()))
        .collect();
    // Tags: 2i writes file i, 2i+1 reads it back.
    let mut outstanding = vec![0u8; files as usize];
    let mut now = SimTime::ZERO;
    let mut host_s = 0.0;
    let (mut next_write, mut completed) = (0u64, 0u64);
    let (mut written, mut read) = (0.0, 0.0);
    let mut in_flight = 0u64;
    while completed < 2 * files {
        let t0 = Instant::now();
        while in_flight < depth && next_write < files {
            let i = next_write;
            fs.write(now, FileId(i), Bytes(sizes[i as usize]), 2 * i);
            next_write += 1;
            in_flight += 1;
        }
        let at = fs
            .next_event()
            .expect("operations pending but no next event");
        let done = fs.poll(at);
        let mut reads = Vec::new();
        for d in &done {
            let i = (d.tag / 2) as usize;
            match d.op {
                Op::Write => {
                    assert_eq!(d.tag % 2, 0, "write completion with a read tag");
                    reads.push(i);
                }
                Op::Read => {
                    assert_eq!(d.tag % 2, 1, "read completion with a write tag");
                    in_flight -= 1;
                }
            }
            outstanding[i] += 1;
        }
        for &i in &reads {
            fs.read(at, FileId(i as u64), Bytes(sizes[i]), 2 * i as u64 + 1);
        }
        host_s += t0.elapsed().as_secs_f64();
        now = at;
        for d in &done {
            let i = (d.tag / 2) as usize;
            match d.op {
                Op::Write => written += sizes[i],
                Op::Read => read += sizes[i],
            }
        }
        completed += done.len() as u64;
    }
    let total: f64 = sizes.iter().sum();
    assert!(
        outstanding.iter().all(|&c| c == 2),
        "a file operation completed twice or never"
    );
    assert!((written - total).abs() <= 1e-6 * total.max(1.0));
    assert!((read - total).abs() <= 1e-6 * total.max(1.0));
    assert!(
        (fs.used() - total).abs() <= 1e-6 * total.max(1.0),
        "mount holds {} of {total} bytes written",
        fs.used()
    );
    FsDrive {
        io_ns: ns_per(host_s, 2 * files),
        ops: 2 * files,
        written,
        read,
    }
}

// ------------------------------------------------------------- lustre ----

#[derive(Clone, Copy, Debug)]
pub struct LustreDrive {
    pub write_ns: f64,
    pub append_ns: f64,
    pub read_ns: f64,
    pub files: u64,
    /// Bytes handed to write/append, and the bytes their plans account for
    /// (client cache + OSS).
    pub written: f64,
    pub planned: f64,
    /// Metadata operations submitted / completed.
    pub mds_submitted: u64,
    pub mds_completed: u64,
}

/// Create `files` shuffle-bucket files across `clients` writers, append to
/// each `appends` times, then read every file once, from its writer
/// (Lustre-local) for even files and from a remote node (Lustre-shared,
/// forcing a revocation) for odd ones. Every plan's metadata operations go
/// through the MDS server, drained with poll/next_event.
pub fn lustre(files: u64, appends: u32, clients: u32, mean_bytes: f64, seed: u64) -> LustreDrive {
    let mut rng = Rng::new(seed);
    let mut l = Lustre::new(LustreConfig::hyperion());
    let clients = clients.max(2);
    let now = SimTime::ZERO;
    let sizes: Vec<f64> = (0..files)
        .map(|_| mean_bytes * (0.5 + rng.unit()))
        .collect();
    let writer = |i: u64| NodeId((i % clients as u64) as u32);
    let (mut written, mut planned) = (0.0, 0.0);
    let mut mds = Vec::new();
    let t0 = Instant::now();
    let plans: Vec<_> = (0..files)
        .map(|i| l.write(now, writer(i), LustreFile(i), Bytes(sizes[i as usize])))
        .collect();
    let write_s = t0.elapsed().as_secs_f64();
    for (p, &b) in plans.iter().zip(&sizes) {
        written += b;
        planned += p.cached_bytes + p.oss_bytes;
        mds.push(p.mds_ops);
    }
    let mut append_s = 0.0;
    for _ in 0..appends {
        let t0 = Instant::now();
        let plans: Vec<_> = (0..files)
            .map(|i| l.append(now, writer(i), LustreFile(i), Bytes(sizes[i as usize])))
            .collect();
        append_s += t0.elapsed().as_secs_f64();
        for (p, &b) in plans.iter().zip(&sizes) {
            written += b;
            planned += p.cached_bytes + p.oss_bytes;
            mds.push(p.mds_ops);
        }
    }
    let t0 = Instant::now();
    let reads: Vec<_> = (0..files)
        .map(|i| {
            let size = l.file_size(LustreFile(i)).expect("file written above");
            let reader = if i % 2 == 0 {
                writer(i)
            } else {
                NodeId((writer(i).0 + 1) % clients)
            };
            (size, l.read(now, reader, LustreFile(i), Bytes(size)))
        })
        .collect();
    let read_s = t0.elapsed().as_secs_f64();
    for (size, p) in &reads {
        assert!(
            (p.cache_hit_bytes + p.oss_bytes - size).abs() <= 1e-6 * size.max(1.0),
            "read plan covers {} of {size} bytes",
            p.cache_hit_bytes + p.oss_bytes
        );
        mds.push(p.mds_ops);
    }
    for (tag, &ops) in mds.iter().enumerate() {
        l.submit_mds(now, ops, tag as u64);
    }
    let mut seen = vec![false; mds.len()];
    let mut completed = 0u64;
    while let Some(at) = l.next_event() {
        for tag in l.poll(at) {
            let slot = &mut seen[tag as usize];
            assert!(!*slot, "metadata operation {tag} completed twice");
            *slot = true;
            completed += 1;
        }
    }
    assert!(
        (written - planned).abs() <= 1e-6 * written.max(1.0),
        "write plans cover {planned} of {written} bytes"
    );
    assert_eq!(completed, mds.len() as u64, "MDS lost operations");
    LustreDrive {
        write_ns: ns_per(write_s, files),
        append_ns: ns_per(append_s, files * appends as u64),
        read_ns: ns_per(read_s, files),
        files,
        written,
        planned,
        mds_submitted: mds.len() as u64,
        mds_completed: completed,
    }
}
