//! Max–min fair flow network.
//!
//! A [`FlowNet`] is a set of capacitated links and a set of flows, each flow
//! traversing a fixed list of links. Whenever the active-flow set or a link
//! capacity changes, rates are recomputed by progressive filling (water-
//! filling): repeatedly saturate the link with the smallest fair share and
//! freeze its flows at that rate. This is the standard fluid approximation
//! used by flow-level network simulators and reproduces both NIC contention
//! and shared-backbone (e.g. Lustre aggregate) bottlenecks.
//!
//! Flows carry FIFO *chunks*: independently tagged byte ranges whose
//! completions are reported individually. The shuffle layer aggregates the
//! per-(source,destination) traffic of many reduce tasks into one flow and
//! uses chunk tags to learn when each task's piece has been delivered,
//! keeping the event count linear in tasks rather than tasks × nodes.
//!
//! Flows live in a dense slab (`Vec` plus a free list of vacated slots), and
//! a [`FlowId`] handle carries its slot, so every lookup is one index.
//! [`FlowNet::next_event`] memoizes its answer until an event that can change
//! it (DESIGN.md §4.3).

use memres_des::sim::Gen;
use memres_des::time::{SimTime, NANOS_PER_SEC};
use memres_des::Bytes;
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Handle to a flow: its id, plus the slab slot the flow lives in. Ids are
/// handed out in opening order and never reused; they are what traces
/// report, and they order the active set. A slot is reused once its flow is
/// gone, so the id also tells a stale handle from the slot's new tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    id: u64,
    slot: u32,
}

impl FlowId {
    /// The flow's id (the value `FlowStart`/`FlowEnd` trace events carry).
    pub fn id(self) -> u64 {
        self.id
    }
}

struct Chunk<T> {
    /// FIFO flows: undelivered bytes of this chunk. Shared (processor-
    /// sharing) flows: the absolute virtual-time target — the value of the
    /// flow's `ps_drained` accumulator at which this member completes.
    remaining: f64,
    tag: T,
}

struct Flow<T> {
    /// The id of the handle that owns this slot.
    id: u64,
    links: Vec<LinkId>,
    queue: VecDeque<Chunk<T>>,
    rate: f64,
    /// Remove the flow automatically when its queue drains.
    auto_close: bool,
    /// Processor-sharing semantics: the flow's allocated rate is divided
    /// evenly among its queued chunks ("members") instead of draining FIFO.
    /// Used for rack-level aggregate flows where each chunk stands for one
    /// collapsed per-pair transfer (DESIGN.md, rack aggregation).
    shared: bool,
    /// Shared flows: cumulative per-member virtual bytes drained this active
    /// period. A member inserted when the accumulator reads `v` completes
    /// when it reaches `v + bytes`; advancing by `dt` at aggregate rate `R`
    /// with `k` members adds `R*dt/k`. Exact-sum: the real bytes moved are
    /// `k * Δaccumulator` summed piecewise, which telescopes to the pushed
    /// byte total when the queue drains.
    ps_drained: f64,
    /// Trace bookkeeping: when the current active period began, and the
    /// bytes queued during it (== bytes delivered once the queue drains).
    active_since: SimTime,
    period_bytes: f64,
}

struct Link {
    capacity: f64,
}

/// A chunk delivery notification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Delivered<T> {
    pub flow: FlowId,
    pub tag: T,
}

pub struct FlowNet<T> {
    links: Vec<Link>,
    /// Flow slab, indexed by [`FlowId`] slot. `None` marks a vacated slot,
    /// listed in `free` for reuse, so the slab's length is the peak count
    /// of flows open at once, not the count ever opened.
    flows: Vec<Option<Flow<T>>>,
    free: Vec<u32>,
    next_flow: u64,
    last: SimTime,
    gen: Gen,
    delivered: Vec<Delivered<T>>,
    /// Deterministic work counters (exposed for perf assertions and
    /// `repro bench --json`). `recomputes`: water-filling passes;
    /// `waterfill_iters`: bottleneck links frozen across those passes.
    pub recomputes: u64,
    pub waterfill_iters: u64,
    /// `next_event` calls, and the calls the memo could not answer.
    pub next_event_calls: u64,
    pub next_event_misses: u64,
    /// Active flows visited by `next_event` on memo misses.
    pub next_event_scans: u64,
    /// `advance` passes that moved the fluid clock (zero-length advances
    /// return before doing any work and are not counted).
    pub advance_calls: u64,
    /// Non-empty chunks pushed onto shared (processor-sharing) flows.
    pub shared_pushes: u64,
    /// Batch mode marker: the engine brackets each event-dispatch round so a
    /// burst of flow operations settles in one recompute at `end_batch`.
    in_batch: bool,
    /// Rates are stale; the next rate-dependent query recomputes them. All
    /// mutations landing at the same `SimTime` therefore coalesce into a
    /// single water-filling pass, and mutations that leave the active-flow
    /// set unchanged (e.g. queueing behind an already-active flow) never
    /// trigger one.
    dirty: bool,
    /// `next_event`'s last answer while it still holds; `None` once an event
    /// that can change it happened: a recompute, a clock move, or a push
    /// onto a shared flow. Every other mutation either leaves every active
    /// head, rate and member count alone or sets `dirty`, and `next_event`
    /// settles (and so recomputes) before it reads the memo.
    next_memo: Option<Option<SimTime>>,
    /// Slots of flows with queued bytes, ascending by flow id (fixes the
    /// iteration order of `advance` and the freeze order of the
    /// water-filling pass).
    active: Vec<u32>,
    /// Per-link slots of active flows crossing it, ascending by flow id —
    /// the water-filling pass freezes a bottleneck's flows without scanning
    /// the whole active set.
    flows_on_link: Vec<Vec<u32>>,
    /// Scratch buffers reused across recomputes (no per-call allocation).
    scratch_remaining: Vec<f64>,
    scratch_unfrozen: Vec<u32>,
    scratch_emptied: Vec<u32>,
    /// Optional trace sink: flow activations/drains become `flow_start` /
    /// `flow_end` events (DESIGN.md §4.11). `None` costs nothing.
    tracer: Option<memres_trace::SharedSink>,
}

impl<T> Default for FlowNet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowNet<T> {
    pub fn new() -> Self {
        FlowNet {
            links: Vec::new(),
            flows: Vec::new(),
            free: Vec::new(),
            next_flow: 0,
            last: SimTime::ZERO,
            gen: Gen::default(),
            delivered: Vec::new(),
            recomputes: 0,
            waterfill_iters: 0,
            next_event_calls: 0,
            next_event_misses: 0,
            next_event_scans: 0,
            advance_calls: 0,
            shared_pushes: 0,
            in_batch: false,
            dirty: false,
            // Exact from the start: with no flows there is no next event.
            next_memo: Some(None),
            active: Vec::new(),
            flows_on_link: Vec::new(),
            scratch_remaining: Vec::new(),
            scratch_unfrozen: Vec::new(),
            scratch_emptied: Vec::new(),
            tracer: None,
        }
    }

    /// Attach a trace sink; flow activations and drains are reported to it.
    pub fn set_tracer(&mut self, sink: memres_trace::SharedSink) {
        self.tracer = Some(sink);
    }

    /// Defer rate recomputation across a burst of flow operations (e.g. a
    /// fetch task opening chunks to a hundred sources, or the engine
    /// bracketing one event-dispatch round). Must be paired with
    /// [`FlowNet::end_batch`]. Recomputation is lazy regardless — the batch
    /// marker only makes the coalescing point explicit.
    pub fn start_batch(&mut self) {
        self.in_batch = true;
    }

    pub fn end_batch(&mut self) {
        self.in_batch = false;
        if self.dirty {
            self.settle();
            self.gen.bump();
        }
    }

    /// Recompute rates if any mutation since the last pass changed the
    /// active-flow set or a capacity.
    fn settle(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.do_recompute();
        }
    }

    /// The live flow behind handle `h`, or `None` for a closed flow's handle.
    fn live(flows: &[Option<Flow<T>>], h: FlowId) -> Option<&Flow<T>> {
        flows
            .get(h.slot as usize)?
            .as_ref()
            .filter(|f| f.id == h.id)
    }

    /// Id of the flow in `slot`; the active indexes hold live slots only.
    fn id_at(flows: &[Option<Flow<T>>], slot: u32) -> u64 {
        flows[slot as usize].as_ref().map_or(u64::MAX, |f| f.id)
    }

    /// Mark flow `h` active: index it on its links and in the active list.
    fn activate(&mut self, h: FlowId) {
        // lint:allow(panic): callers activate the flow they just pushed onto
        let f = self.flows[h.slot as usize]
            .as_ref()
            .expect("activated flow exists");
        for l in &f.links {
            let list = &mut self.flows_on_link[l.0 as usize];
            let pos = list.partition_point(|&s| Self::id_at(&self.flows, s) < h.id);
            list.insert(pos, h.slot);
        }
        let pos = self
            .active
            .partition_point(|&s| Self::id_at(&self.flows, s) < h.id);
        self.active.insert(pos, h.slot);
        self.dirty = true;
    }

    /// Remove flow `h` (crossing `links`, still in its slot) from the
    /// active indexes.
    fn deactivate_indexed(
        active: &mut Vec<u32>,
        flows_on_link: &mut [Vec<u32>],
        flows: &[Option<Flow<T>>],
        h: FlowId,
        links: &[LinkId],
    ) {
        for l in links {
            let list = &mut flows_on_link[l.0 as usize];
            let pos = list.partition_point(|&s| Self::id_at(flows, s) < h.id);
            debug_assert!(
                list.get(pos) == Some(&h.slot),
                "flow missing from link index"
            );
            list.remove(pos);
        }
        let pos = active.partition_point(|&s| Self::id_at(flows, s) < h.id);
        debug_assert!(
            active.get(pos) == Some(&h.slot),
            "flow missing from active list"
        );
        active.remove(pos);
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0 && capacity.is_finite());
        self.links.push(Link { capacity });
        self.flows_on_link.push(Vec::new());
        LinkId(self.links.len() as u32 - 1)
    }

    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0 as usize].capacity
    }

    pub fn set_link_capacity(&mut self, now: SimTime, link: LinkId, capacity: f64) {
        assert!(capacity > 0.0 && capacity.is_finite());
        self.advance(now);
        if (self.links[link.0 as usize].capacity - capacity).abs() > f64::EPSILON {
            self.links[link.0 as usize].capacity = capacity;
            self.dirty = true;
            self.gen.bump();
        }
    }

    /// Open a flow along `links`. With `auto_close`, the flow disappears once
    /// its last chunk is delivered; otherwise it idles awaiting more chunks.
    pub fn open_flow(&mut self, now: SimTime, links: Vec<LinkId>, auto_close: bool) -> FlowId {
        self.open_flow_inner(now, links, auto_close, false)
    }

    /// Open a *shared* (processor-sharing) flow: its allocated rate is split
    /// evenly among queued chunks, each completing when its own bytes have
    /// moved. This is the aggregate-flow primitive for rack-level collapse:
    /// one flow per rack pair, one chunk per collapsed member transfer.
    pub fn open_shared_flow(
        &mut self,
        now: SimTime,
        links: Vec<LinkId>,
        auto_close: bool,
    ) -> FlowId {
        self.open_flow_inner(now, links, auto_close, true)
    }

    fn open_flow_inner(
        &mut self,
        now: SimTime,
        links: Vec<LinkId>,
        auto_close: bool,
        shared: bool,
    ) -> FlowId {
        for l in &links {
            assert!((l.0 as usize) < self.links.len(), "unknown link {l:?}");
        }
        self.advance(now);
        let id = self.next_flow;
        self.next_flow += 1;
        let flow = Some(Flow {
            id,
            links,
            queue: VecDeque::new(),
            rate: 0.0,
            auto_close,
            shared,
            ps_drained: 0.0,
            active_since: now,
            period_bytes: 0.0,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flows[slot as usize] = flow;
                slot
            }
            None => {
                self.flows.push(flow);
                // lint:allow(panic): 2^32 flows open at once would exhaust memory long before
                u32::try_from(self.flows.len() - 1).expect("flow slab exceeds u32 slots")
            }
        };
        // An empty flow does not consume bandwidth; no recompute needed yet.
        FlowId { id, slot }
    }

    /// Enqueue `bytes` on a flow; the `tag` comes back via [`FlowNet::poll`] when the
    /// chunk has been fully delivered.
    pub fn push_chunk(&mut self, now: SimTime, flow: FlowId, bytes: Bytes, tag: T) {
        let bytes = bytes.get();
        assert!(bytes >= 0.0 && bytes.is_finite());
        self.advance(now);
        let f = self
            .flows
            .get_mut(flow.slot as usize)
            .and_then(Option::as_mut)
            .filter(|f| f.id == flow.id)
            // Callers hold a FlowId from open_flow; close_flow invalidates
            // it. A miss is engine corruption, not recoverable state.
            // lint:allow(panic): FlowId handles come from open_flow
            .expect("push_chunk on unknown flow");
        if bytes == 0.0 {
            self.delivered.push(Delivered { flow, tag });
            self.gen.bump();
            return;
        }
        let was_idle = f.queue.is_empty();
        if f.shared {
            // A new member changes the member count `k` and may become the
            // head, so the memoized next completion no longer holds.
            self.shared_pushes += 1;
            self.next_memo = None;
            if was_idle {
                // Fresh active period: reset the virtual clock so targets
                // stay small and float precision stays uniform per period.
                f.ps_drained = 0.0;
            }
            // Member target in virtual time; sorted ascending, ties FIFO.
            let target = f.ps_drained + bytes;
            let at = f.queue.partition_point(|c| c.remaining <= target);
            f.queue.insert(
                at,
                Chunk {
                    remaining: target,
                    tag,
                },
            );
        } else {
            f.queue.push_back(Chunk {
                remaining: bytes,
                tag,
            });
        }
        if was_idle {
            f.active_since = now;
            f.period_bytes = bytes;
            self.activate(flow);
            if let Some(tr) = &self.tracer {
                tr.borrow_mut()
                    .emit(now, memres_trace::TraceEvent::FlowStart { flow: flow.id });
            }
        } else {
            f.period_bytes += bytes;
        }
        self.gen.bump();
    }

    /// Drop a flow and any undelivered chunks (returns their tags).
    pub fn close_flow(&mut self, now: SimTime, flow: FlowId) -> Vec<T> {
        self.advance(now);
        let Some(f) = Self::live(&self.flows, flow) else {
            return Vec::new();
        };
        if !f.queue.is_empty() {
            Self::deactivate_indexed(
                &mut self.active,
                &mut self.flows_on_link,
                &self.flows,
                flow,
                &f.links,
            );
            self.dirty = true;
        }
        self.free.push(flow.slot);
        self.gen.bump();
        self.flows[flow.slot as usize]
            .take()
            .map_or_else(Vec::new, |f| f.queue.into_iter().map(|c| c.tag).collect())
    }

    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Advance fluid state to `now`, harvesting chunk completions along the
    /// way. Rates are constant between recomputes, so in-interval chunk
    /// completions are exact. Every mutating operation advances first, so
    /// `last` always equals the time of the most recent mutation and stale
    /// rates can only ever span a zero-length interval — `settle` here
    /// therefore recomputes before any time actually passes on them.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "FlowNet clock went backwards");
        let dt = now.since(self.last).as_secs_f64();
        if now != self.last {
            // `next_event` answers relative to `last`.
            self.next_memo = None;
        }
        self.last = now;
        if dt <= 0.0 {
            return;
        }
        self.advance_calls += 1;
        self.settle();
        let mut emptied = std::mem::take(&mut self.scratch_emptied);
        emptied.clear();
        for &s in &self.active {
            // lint:allow(panic): `active` holds live slots only (activate/deactivate_indexed)
            let f = self.flows[s as usize].as_mut().expect("active flow exists");
            if f.rate <= 0.0 {
                continue;
            }
            let h = FlowId { id: f.id, slot: s };
            let mut budget = f.rate * dt;
            if f.shared {
                // Processor sharing in virtual time: `k` members advance in
                // lockstep at rate/k each, so moving the front member to its
                // target costs `k * (target - ps_drained)` real bytes. Members
                // tied at the same target all complete on the same budget, so
                // keep draining zero-need heads even once the budget is spent.
                while let Some(head) = f.queue.front() {
                    let k = f.queue.len() as f64;
                    let need = (head.remaining - f.ps_drained).max(0.0) * k;
                    // Tolerance: a member whose remainder is within rounding
                    // noise of the budget counts as delivered.
                    if need <= budget + 1e-6 {
                        budget = (budget - need).max(0.0);
                        f.ps_drained = f.ps_drained.max(head.remaining);
                        // lint:allow(panic): front_mut() matched just above.
                        let c = f.queue.pop_front().expect("front() was Some");
                        self.delivered.push(Delivered {
                            flow: h,
                            tag: c.tag,
                        });
                    } else {
                        f.ps_drained += budget / k;
                        break;
                    }
                }
            } else {
                while budget > 0.0 {
                    let Some(head) = f.queue.front_mut() else {
                        break;
                    };
                    // Tolerance: a chunk whose remainder is within rounding noise
                    // of the budget counts as delivered.
                    if head.remaining <= budget + 1e-6 {
                        budget -= head.remaining;
                        // lint:allow(panic): front_mut() matched just above.
                        let c = f.queue.pop_front().unwrap();
                        self.delivered.push(Delivered {
                            flow: h,
                            tag: c.tag,
                        });
                    } else {
                        head.remaining -= budget;
                        budget = 0.0;
                    }
                }
            }
            if f.queue.is_empty() {
                emptied.push(s);
            }
        }
        for &s in &emptied {
            // lint:allow(panic): `emptied` collected from live active flows this call
            let f = self.flows[s as usize]
                .as_mut()
                .expect("emptied flow exists");
            f.rate = 0.0;
            let h = FlowId { id: f.id, slot: s };
            if let Some(tr) = &self.tracer {
                tr.borrow_mut().emit(
                    self.last,
                    memres_trace::TraceEvent::FlowEnd {
                        flow: h.id,
                        bytes: Bytes(f.period_bytes),
                        dur: self.last.since(f.active_since),
                    },
                );
            }
            let auto_close = f.auto_close;
            let links = std::mem::take(&mut f.links);
            Self::deactivate_indexed(
                &mut self.active,
                &mut self.flows_on_link,
                &self.flows,
                h,
                &links,
            );
            let slot = &mut self.flows[s as usize];
            if auto_close {
                *slot = None;
                self.free.push(s);
            } else if let Some(f) = slot {
                f.links = links;
            }
        }
        if !emptied.is_empty() {
            self.dirty = true;
        }
        self.scratch_emptied = emptied;
    }

    /// Progressive-filling (max–min fair) rate allocation over the active
    /// set, driven by the per-link index and reusing scratch buffers.
    fn do_recompute(&mut self) {
        self.recomputes += 1;
        self.next_memo = None;
        let nl = self.links.len();
        self.scratch_remaining.clear();
        self.scratch_remaining
            .extend(self.links.iter().map(|l| l.capacity));
        self.scratch_unfrozen.clear();
        self.scratch_unfrozen
            .extend(self.flows_on_link.iter().map(|v| v.len() as u32));
        // Sentinel: unfrozen active flows carry a negative rate until the
        // water-filling pass freezes them.
        for &s in &self.active {
            // lint:allow(panic): `active` holds live slots only.
            self.flows[s as usize]
                .as_mut()
                .expect("active flow exists")
                .rate = -1.0;
        }
        // Each iteration saturates at least one link, so <= nl iterations;
        // each link's flow list is scanned at most once as a bottleneck.
        loop {
            // Find the bottleneck link: the smallest per-flow fair share.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..nl {
                let n = self.scratch_unfrozen[i];
                if n == 0 {
                    continue;
                }
                let share = self.scratch_remaining[i].max(0.0) / n as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((i, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            self.waterfill_iters += 1;
            // Freeze every unfrozen flow crossing the bottleneck at `share`
            // (ascending flow id, like the pre-index implementation).
            for &s in &self.flows_on_link[bottleneck] {
                // lint:allow(panic): flows_on_link mirrors `active` via activate/deactivate_indexed
                let f = self.flows[s as usize]
                    .as_mut()
                    .expect("indexed flow exists");
                if f.rate >= 0.0 {
                    continue;
                }
                f.rate = share;
                for l in &f.links {
                    let li = l.0 as usize;
                    self.scratch_remaining[li] -= share;
                    self.scratch_unfrozen[li] -= 1;
                }
            }
        }
    }

    /// Instant of the next chunk completion, or `None` when idle. Scans the
    /// active flows (idle persistent flows cost nothing), and only when the
    /// memo of the previous answer has been invalidated.
    pub fn next_event(&mut self) -> Option<SimTime> {
        self.settle();
        self.next_event_calls += 1;
        if let Some(at) = self.next_memo {
            return at;
        }
        self.next_event_misses += 1;
        self.next_event_scans += self.active.len() as u64;
        let mut best: Option<f64> = None;
        for &s in &self.active {
            // lint:allow(panic): `active` holds live slots only.
            let f = self.flows[s as usize].as_ref().expect("active flow exists");
            if f.rate <= 0.0 {
                continue;
            }
            if let Some(head) = f.queue.front() {
                let dt = if f.shared {
                    (head.remaining - f.ps_drained).max(0.0) * f.queue.len() as f64 / f.rate
                } else {
                    head.remaining / f.rate
                };
                if best.is_none_or(|b| dt < b) {
                    best = Some(dt);
                }
            }
        }
        let at = best.map(|dt| {
            let ns = dt * NANOS_PER_SEC as f64;
            if ns >= (u64::MAX - self.last.as_nanos()) as f64 {
                SimTime::FAR_FUTURE
            } else {
                SimTime::from_nanos(self.last.as_nanos() + ns.ceil() as u64)
            }
        });
        self.next_memo = Some(at);
        at
    }

    /// Advance to `now` and take the deliveries that are due.
    pub fn poll(&mut self, now: SimTime) -> Vec<Delivered<T>> {
        self.advance(now);
        if !self.delivered.is_empty() {
            self.gen.bump();
        }
        std::mem::take(&mut self.delivered)
    }

    /// Current rate of a flow in bytes/sec (0 while idle). Test hook.
    pub fn flow_rate(&mut self, flow: FlowId) -> Option<f64> {
        self.settle();
        Self::live(&self.flows, flow).map(|f| f.rate)
    }

    /// Aggregate allocated rate crossing `link` right now, bytes/sec — the
    /// sum of the active flows' fair-share rates on it (settles first). The
    /// metrics sampler divides this by [`FlowNet::link_capacity`] to report
    /// per-link utilization (DESIGN.md §4.16); O(active flows on the link).
    pub fn link_rate(&mut self, link: LinkId) -> f64 {
        self.settle();
        self.flows_on_link
            .get(link.0 as usize)
            .map(|slots| {
                slots
                    .iter()
                    .filter_map(|&s| self.flows[s as usize].as_ref())
                    .map(|f| f.rate)
                    .sum()
            })
            .unwrap_or(0.0)
    }

    /// Differential audit: recompute the whole allocation by textbook
    /// progressive filling — no per-link index, no scratch reuse, no
    /// incremental state — and compare against the incremental solver's
    /// current rates. Max–min fair rates are unique, so any disagreement
    /// beyond float noise is an engine bug. Returns a description of the
    /// first mismatch (fuzz oracle 1; see DESIGN.md §4.13).
    pub fn audit_waterfill(&mut self) -> Result<(), String> {
        self.settle();
        let caps: Vec<f64> = self.links.iter().map(|l| l.capacity).collect();
        let mut remaining = caps.clone();
        let mut count = vec![0u32; caps.len()];
        let mut want: Vec<(&Flow<T>, f64)> = Vec::with_capacity(self.active.len());
        for &s in &self.active {
            let f = self.flows[s as usize]
                .as_ref()
                .ok_or_else(|| format!("active slot {s} is vacant"))?;
            for l in &f.links {
                count[l.0 as usize] += 1;
            }
            want.push((f, -1.0));
        }
        loop {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..caps.len() {
                if count[i] == 0 {
                    continue;
                }
                let share = remaining[i].max(0.0) / count[i] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((i, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            for (f, rate) in want.iter_mut() {
                if *rate >= 0.0 || !f.links.iter().any(|l| l.0 as usize == bottleneck) {
                    continue;
                }
                *rate = share;
                for l in &f.links {
                    remaining[l.0 as usize] -= share;
                    count[l.0 as usize] -= 1;
                }
            }
        }
        for &(f, w) in &want {
            if (f.rate - w).abs() > 1e-9 * w.max(1.0) {
                return Err(format!(
                    "waterfill mismatch: flow {} incremental rate {} \
                     vs from-scratch {w} ({} active flows, {} links)",
                    f.id,
                    f.rate,
                    self.active.len(),
                    caps.len()
                ));
            }
        }
        Ok(())
    }

    /// Differential audit of the `next_event` memo: while an answer is
    /// cached, recompute the next completion from scratch — every live flow
    /// in the slab, not the active index, each head converted to an instant
    /// on its own, then the earliest — and require exact equality. A stale
    /// memo, a missed invalidation, or a flow with queued bytes missing from
    /// the active index all show up as a mismatch. Nothing cached means
    /// nothing to check (fuzz oracle 1; DESIGN.md §4.3, §4.13).
    pub fn audit_next_event(&mut self) -> Result<(), String> {
        self.settle();
        let Some(cached) = self.next_memo else {
            return Ok(());
        };
        let base = self.last.as_nanos();
        let mut want: Option<SimTime> = None;
        for f in self.flows.iter().flatten() {
            let Some(head) = f.queue.front() else {
                continue;
            };
            if f.rate <= 0.0 {
                continue;
            }
            let bytes_left = if f.shared {
                (head.remaining - f.ps_drained).max(0.0) * f.queue.len() as f64
            } else {
                head.remaining
            };
            let ns = bytes_left / f.rate * NANOS_PER_SEC as f64;
            let at = if ns >= (u64::MAX - base) as f64 {
                SimTime::FAR_FUTURE
            } else {
                SimTime::from_nanos(base + ns.ceil() as u64)
            };
            want = Some(want.map_or(at, |w| w.min(at)));
        }
        if cached == want {
            Ok(())
        } else {
            Err(format!(
                "next_event memo mismatch: cached {:?} ns vs from-scratch {:?} ns \
                 ({} active flows, clock {base} ns)",
                cached.map(SimTime::as_nanos),
                want.map(SimTime::as_nanos),
                self.active.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_des::time::SimDuration;

    fn drain(net: &mut FlowNet<u32>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(t) = net.next_event() {
            for d in net.poll(t) {
                out.push((t, d.tag));
            }
        }
        out
    }

    #[test]
    fn single_flow_single_link() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 1u32);
        let done = drain(&mut net);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(50.0), 1u32);
        net.push_chunk(SimTime::ZERO, f2, Bytes(50.0), 2u32);
        assert!((net.flow_rate(f1).unwrap() - 50.0).abs() < 1e-9);
        let done = drain(&mut net);
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn bottleneck_elsewhere_frees_capacity() {
        // f1: A(100) only. f2: A + B(10). Max-min: f2 limited to 10 by B,
        // f1 then gets 90 on A.
        let mut net = FlowNet::new();
        let a = net.add_link(100.0);
        let b = net.add_link(10.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![a], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![a, b], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(90.0), 1u32);
        net.push_chunk(SimTime::ZERO, f2, Bytes(10.0), 2u32);
        assert!((net.flow_rate(f2).unwrap() - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(f1).unwrap() - 90.0).abs() < 1e-9);
        let done = drain(&mut net);
        // Both complete at t=1.0.
        for (t, _) in done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn departures_speed_up_survivors() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        let f2 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(25.0), 1u32); // done at t=0.5 at rate 50
        net.push_chunk(SimTime::ZERO, f2, Bytes(75.0), 2u32); // 25 by 0.5, then 50 @ 100/s -> t=1.0
        let done = drain(&mut net);
        assert_eq!(done[0].1, 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
        assert_eq!(done[1].1, 2);
        assert!((done[1].0.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn chunks_deliver_fifo_with_individual_tags() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 2u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 3u32);
        let done = drain(&mut net);
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!((done[2].0.as_secs_f64() - 3.0).abs() < 1e-6);
        // Flow persists (not auto-close), idle at rate 0.
        assert_eq!(net.flow_rate(f), Some(0.0));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn idle_flow_consumes_no_bandwidth() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let _idle = net.open_flow(SimTime::ZERO, vec![l], false);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        assert!((net.flow_rate(f).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_mid_flight() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        net.set_link_capacity(SimTime::from_secs_f64(0.5), l, 25.0);
        let done = drain(&mut net);
        // 50 left at t=0.5, rate 25 -> +2.0s.
        assert!((done[0].0.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn close_flow_returns_pending_tags() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(100.0), 2u32);
        let pending = net.close_flow(SimTime::from_secs_f64(0.1), f);
        assert_eq!(pending, vec![1, 2]);
    }

    #[test]
    fn zero_byte_chunk_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(0.0), 9u32);
        let got = net.poll(SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 9);
    }

    #[test]
    fn push_behind_active_flow_skips_recompute() {
        // Queueing a chunk behind an already-active flow leaves the active
        // set unchanged: no water-filling pass may be spent on it.
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 1);
        assert_eq!(net.flow_rate(f), Some(100.0)); // settles
        let before = net.recomputes;
        net.push_chunk(SimTime::ZERO, f, Bytes(50.0), 2);
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.recomputes, before, "no-op mutation must not recompute");
    }

    #[test]
    fn repeated_next_event_is_answered_from_the_memo() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let fifo = net.open_flow(SimTime::ZERO, vec![l], false);
        let shared = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, fifo, Bytes(50.0), 1); // 50 B/s: done at 1.0 s
        net.push_chunk(SimTime::ZERO, shared, Bytes(80.0), 2); // done at 1.6 s
        let first = net.next_event();
        assert_eq!(first, Some(SimTime::from_secs_f64(1.0)));
        let scans = net.next_event_scans;
        assert_eq!(scans, 2);
        // No mutation in between: the memo answers and visits no flow.
        assert_eq!(net.next_event(), first);
        assert_eq!(net.next_event_scans, scans);
        // Queueing behind an active FIFO flow leaves every head alone.
        net.push_chunk(SimTime::ZERO, fifo, Bytes(10.0), 3);
        assert_eq!(net.next_event(), first);
        assert_eq!(net.next_event_scans, scans);
        assert_eq!(net.audit_next_event(), Ok(()));
        // A 1-byte member joins the shared flow: with k = 2 it needs 2 bytes
        // at 50 B/s, so the next completion moves up to 0.04 s.
        net.push_chunk(SimTime::ZERO, shared, Bytes(1.0), 4);
        assert_eq!(net.next_event(), Some(SimTime::from_secs_f64(0.04)));
        assert_eq!(net.next_event_scans, scans + 2);
        assert_eq!(
            (
                net.next_event_calls,
                net.next_event_misses,
                net.shared_pushes
            ),
            (4, 2, 2)
        );
        assert_eq!(net.audit_next_event(), Ok(()));
    }

    #[test]
    fn slab_reuses_vacated_slots_and_rejects_stale_handles() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let a = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, a, Bytes(10.0), 1);
        assert_eq!(drain(&mut net).len(), 1); // `a` auto-closes
        let t = SimTime::from_secs_f64(1.0);
        let b = net.open_flow(t, vec![l], false);
        assert_eq!(b.id(), a.id() + 1, "ids are never reused");
        assert_eq!(net.flows.len(), 1, "the drained flow's slot is reused");
        // The stale handle does not reach the slot's new tenant.
        assert_eq!(net.flow_rate(a), None);
        net.push_chunk(t, b, Bytes(10.0), 2);
        assert!(net.close_flow(t, a).is_empty());
        assert_eq!(net.close_flow(t, b), vec![2]);
        assert_eq!(net.free, vec![0]);
    }

    #[test]
    fn same_time_arrivals_coalesce_into_one_recompute() {
        let mut net: FlowNet<u32> = FlowNet::new();
        let l = net.add_link(100.0);
        let base = net.recomputes;
        for i in 0..10u32 {
            let f = net.open_flow(SimTime::ZERO, vec![l], true);
            net.push_chunk(SimTime::ZERO, f, Bytes(10.0), i);
        }
        let _ = net.next_event(); // settles once for the whole burst
        assert_eq!(
            net.recomputes,
            base + 1,
            "same-instant arrivals must coalesce"
        );
        // All ten flows share the one link: a single bottleneck iteration.
        assert_eq!(net.waterfill_iters, 1);
    }

    #[test]
    fn shared_flow_processor_shares_among_members() {
        // 90 B/s link, members of 10/20/30 bytes: PS completes them at
        // t = 1/3 (10B at 30 each), 5/9 (+10B at 45 each), 2/3 (+10B at 90).
        let mut net = FlowNet::new();
        let l = net.add_link(90.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(10.0), 1u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(20.0), 2u32);
        net.push_chunk(SimTime::ZERO, f, Bytes(30.0), 3u32);
        let done = drain(&mut net);
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!((done[0].0.as_secs_f64() - 1.0 / 3.0).abs() < 1e-6);
        assert!((done[1].0.as_secs_f64() - 5.0 / 9.0).abs() < 1e-6);
        // Work conservation: 60 bytes through 90 B/s.
        assert!((done[2].0.as_secs_f64() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn shared_flow_small_late_member_overtakes() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        net.push_chunk(SimTime::ZERO, f, Bytes(1000.0), 1u32);
        // Joins at t=0.5 with 1 byte: at 50 B/s each it finishes long before
        // the big member despite arriving later.
        net.push_chunk(SimTime::from_secs_f64(0.5), f, Bytes(1.0), 2u32);
        let done = drain(&mut net);
        assert_eq!(done[0].1, 2);
        assert!(done[0].0 < done[1].0);
        // Total work conserved: 1001 bytes at 100 B/s.
        assert!((done[1].0.as_secs_f64() - 10.01).abs() < 1e-4);
    }

    #[test]
    fn shared_flow_is_one_flow_to_the_waterfill() {
        // Aggregate flow with 10 members + one plain flow on the same link:
        // the aggregate gets half the capacity, not 10/11ths.
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let agg = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        for i in 0..10u32 {
            net.push_chunk(SimTime::ZERO, agg, Bytes(50.0), i);
        }
        let plain = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, plain, Bytes(50.0), 99u32);
        assert!((net.flow_rate(agg).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(plain).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn shared_flow_equal_members_finish_together_fifo_tagged() {
        let mut net = FlowNet::new();
        let l = net.add_link(30.0);
        let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
        for i in 0..3u32 {
            net.push_chunk(SimTime::ZERO, f, Bytes(10.0), i);
        }
        let done = drain(&mut net);
        // Same byte count -> same completion instant, insertion order kept.
        assert_eq!(done.iter().map(|d| d.1).collect::<Vec<_>>(), vec![0, 1, 2]);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
        // Idle afterwards; a new active period restarts the virtual clock.
        net.push_chunk(SimTime::from_secs_f64(2.0), f, Bytes(30.0), 7u32);
        let done = drain(&mut net);
        assert!((done[0].0.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_shares_from_then_on() {
        let mut net = FlowNet::new();
        let l = net.add_link(100.0);
        let f1 = net.open_flow(SimTime::ZERO, vec![l], true);
        net.push_chunk(SimTime::ZERO, f1, Bytes(100.0), 1u32);
        let f2 = net.open_flow(SimTime::from_secs_f64(0.5), vec![l], true);
        net.push_chunk(SimTime::from_secs_f64(0.5), f2, Bytes(50.0), 2u32);
        let done = drain(&mut net);
        // Both have 50 at t=0.5 sharing 100 -> both done at 1.5.
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 1.5).abs() < 1e-6);
        }
        let _ = SimDuration::ZERO;
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Textbook progressive filling, written independently of the engine's
    /// incremental implementation: rebuilds the allocation from scratch from
    /// (capacities, active flow paths). Max–min fair rates are unique, so the
    /// two must agree to float precision after any event sequence.
    fn scratch_waterfill(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
        let nl = caps.len();
        let mut remaining: Vec<f64> = caps.to_vec();
        let mut count = vec![0u32; nl];
        for p in paths {
            for &l in p {
                count[l] += 1;
            }
        }
        let mut rates = vec![-1.0f64; paths.len()];
        loop {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..nl {
                if count[i] == 0 {
                    continue;
                }
                let share = remaining[i].max(0.0) / count[i] as f64;
                if best.is_none_or(|(_, s)| share < s) {
                    best = Some((i, share));
                }
            }
            let Some((bottleneck, share)) = best else {
                break;
            };
            for (fi, p) in paths.iter().enumerate() {
                if rates[fi] >= 0.0 || !p.contains(&bottleneck) {
                    continue;
                }
                rates[fi] = share;
                for &l in p {
                    remaining[l] -= share;
                    count[l] -= 1;
                }
            }
        }
        rates
    }

    /// One random arrival/departure/advance/capacity event. Returns the
    /// updated wall-clock.
    type Op = (
        u8,
        proptest::sample::Index,
        proptest::sample::Index,
        f64,
        f64,
    );

    /// Shadow bookkeeping the test keeps alongside the net: flow id, link
    /// path (as indices), undelivered chunk count.
    type Shadow = Vec<(FlowId, Vec<usize>, usize)>;

    fn apply_op(
        net: &mut FlowNet<u32>,
        caps: &mut [f64],
        shadow: &mut Shadow,
        links: &[LinkId],
        op: &Op,
        now_secs: &mut f64,
    ) {
        let (kind, a, b, bytes, dt) = op;
        let now = SimTime::from_secs_f64(*now_secs);
        match kind % 5 {
            // Arrival: open an auto-close flow over 1-2 links, queue a chunk.
            0 => {
                let mut path = vec![a.index(links.len()), b.index(links.len())];
                path.sort_unstable();
                path.dedup();
                let f = net.open_flow(now, path.iter().map(|&i| links[i]).collect(), true);
                net.push_chunk(now, f, Bytes(*bytes), f.id() as u32);
                shadow.push((f, path, 1));
            }
            // Extra chunk on a random active flow: queued behind a FIFO
            // flow (active set unchanged), or a new member of a shared one.
            1 => {
                if !shadow.is_empty() {
                    let i = a.index(shadow.len());
                    let e = &mut shadow[i];
                    net.push_chunk(now, e.0, Bytes(*bytes), e.0.id() as u32);
                    e.2 += 1;
                }
            }
            // Arrival of a shared (processor-sharing) auto-close flow with
            // two members.
            4 => {
                let mut path = vec![a.index(links.len()), b.index(links.len())];
                path.sort_unstable();
                path.dedup();
                let f = net.open_shared_flow(now, path.iter().map(|&i| links[i]).collect(), true);
                net.push_chunk(now, f, Bytes(*bytes), f.id() as u32);
                net.push_chunk(now, f, Bytes(*bytes * 0.5), f.id() as u32);
                shadow.push((f, path, 2));
            }
            // Departure: close a random active flow.
            2 => {
                if !shadow.is_empty() {
                    let (f, _, _) = shadow.swap_remove(a.index(shadow.len()));
                    net.close_flow(now, f);
                }
            }
            // Advance time, harvesting deliveries; or resize a link.
            3 => {
                if *bytes < 50.0 {
                    *now_secs += dt;
                    let t = SimTime::from_secs_f64(*now_secs);
                    for d in net.poll(t) {
                        let i = shadow
                            .iter()
                            .position(|(f, _, _)| *f == d.flow)
                            .expect("delivery for tracked flow");
                        shadow[i].2 -= 1;
                        if shadow[i].2 == 0 {
                            shadow.swap_remove(i);
                        }
                    }
                } else {
                    let li = a.index(caps.len());
                    caps[li] = 1.0 + *bytes;
                    net.set_link_capacity(now, links[li], caps[li]);
                }
            }
            _ => unreachable!("op kind is reduced mod 5"),
        }
    }

    proptest! {
        /// After EVERY event in a random arrival/departure/advance/capacity
        /// sequence, the incremental recompute's rates equal an independent
        /// from-scratch water-filling to within 1e-9.
        #[test]
        fn incremental_recompute_matches_scratch_waterfill(
            caps0 in proptest::collection::vec(1.0f64..100.0, 1..5),
            ops in proptest::collection::vec(
                (0u8..4, any::<proptest::sample::Index>(), any::<proptest::sample::Index>(),
                 1.0f64..100.0, 0.001f64..0.05),
                1..30,
            ),
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let mut caps = caps0.clone();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut shadow: Shadow = Vec::new();
            let mut now = 0.0f64;
            for op in &ops {
                apply_op(&mut net, &mut caps, &mut shadow, &links, op, &mut now);
                let paths: Vec<Vec<usize>> = shadow.iter().map(|(_, p, _)| p.clone()).collect();
                let want = scratch_waterfill(&caps, &paths);
                for ((f, _, _), w) in shadow.iter().zip(want.iter()) {
                    let got = net.flow_rate(*f).expect("tracked flow exists");
                    prop_assert!(
                        (got - w).abs() <= 1e-9 * w.max(1.0),
                        "rate mismatch after event: got {got}, scratch waterfill {w}"
                    );
                }
            }
        }

        /// After every event of a random sequence that includes shared-flow
        /// arrivals and pushes, a `next_event` answer still cached from
        /// before the event equals a from-scratch min over active heads,
        /// and so does a freshly computed one.
        #[test]
        fn next_event_memo_matches_scratch_min(
            caps0 in proptest::collection::vec(1.0f64..100.0, 1..5),
            ops in proptest::collection::vec(
                (0u8..5, any::<proptest::sample::Index>(), any::<proptest::sample::Index>(),
                 1.0f64..100.0, 0.001f64..0.05),
                1..40,
            ),
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let mut caps = caps0.clone();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut shadow: Shadow = Vec::new();
            let mut now = 0.0f64;
            for op in &ops {
                apply_op(&mut net, &mut caps, &mut shadow, &links, op, &mut now);
                prop_assert_eq!(net.audit_next_event(), Ok(()), "memo kept across {:?}", op);
                let _ = net.next_event();
                prop_assert_eq!(net.audit_next_event(), Ok(()), "fresh answer after {:?}", op);
            }
        }

        /// Invariant: after every event, the allocated rates on each link sum
        /// to at most its capacity.
        #[test]
        fn link_rates_never_exceed_capacity(
            caps0 in proptest::collection::vec(1.0f64..100.0, 1..5),
            ops in proptest::collection::vec(
                (0u8..4, any::<proptest::sample::Index>(), any::<proptest::sample::Index>(),
                 1.0f64..100.0, 0.001f64..0.05),
                1..30,
            ),
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let mut caps = caps0.clone();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut shadow: Shadow = Vec::new();
            let mut now = 0.0f64;
            for op in &ops {
                apply_op(&mut net, &mut caps, &mut shadow, &links, op, &mut now);
                let mut used = vec![0.0f64; caps.len()];
                for (f, path, _) in &shadow {
                    let rate = net.flow_rate(*f).expect("tracked flow exists");
                    prop_assert!(rate > 0.0, "active flow starved");
                    for &li in path {
                        used[li] += rate;
                    }
                }
                for (u, c) in used.iter().zip(caps.iter()) {
                    prop_assert!(
                        *u <= c * (1.0 + 1e-9) + 1e-9,
                        "link oversubscribed after event: {u} > {c}"
                    );
                }
            }
        }

        /// Shared (processor-sharing) flows conserve work exactly: pushing
        /// any member mix at t=0 over a dedicated link drains in exactly
        /// sum(bytes)/capacity seconds, every member delivered once, and
        /// completions are nondecreasing in time.
        #[test]
        fn shared_flow_conserves_work(
            bytes in proptest::collection::vec(1.0f64..100.0, 1..40)
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let l = net.add_link(100.0);
            let f = net.open_shared_flow(SimTime::ZERO, vec![l], false);
            for (i, &b) in bytes.iter().enumerate() {
                net.push_chunk(SimTime::ZERO, f, Bytes(b), i as u32);
            }
            let mut seen = vec![false; bytes.len()];
            let mut last = SimTime::ZERO;
            let mut end = SimTime::ZERO;
            while let Some(t) = net.next_event() {
                prop_assert!(t >= last);
                last = t;
                for d in net.poll(t) {
                    prop_assert!(!seen[d.tag as usize]);
                    seen[d.tag as usize] = true;
                    end = t;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
            let want = bytes.iter().sum::<f64>() / 100.0;
            prop_assert!(
                (end.as_secs_f64() - want).abs() < 1e-4,
                "drain time {} != total/capacity {}",
                end.as_secs_f64(),
                want
            );
        }

        /// No link is ever oversubscribed, and every flow with queued bytes
        /// gets a strictly positive rate (work conservation at the flow level).
        #[test]
        fn rates_feasible_and_positive(
            caps in proptest::collection::vec(1.0f64..100.0, 1..6),
            flows in proptest::collection::vec(
                (proptest::collection::vec(any::<proptest::sample::Index>(), 1..4), 1.0f64..50.0),
                1..20,
            ),
        ) {
            let mut net: FlowNet<u32> = FlowNet::new();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut ids = Vec::new();
            for (i, (link_sel, bytes)) in flows.iter().enumerate() {
                let mut path: Vec<LinkId> =
                    link_sel.iter().map(|ix| links[ix.index(links.len())]).collect();
                path.sort();
                path.dedup();
                let f = net.open_flow(SimTime::ZERO, path, true);
                net.push_chunk(SimTime::ZERO, f, Bytes(*bytes), i as u32);
                ids.push(f);
            }
            // Feasibility: sum of rates on each link <= capacity (+eps).
            let mut used = vec![0.0f64; caps.len()];
            for (&fid, _) in ids.iter().zip(flows.iter()) {
                let rate = net.flow_rate(fid).unwrap();
                prop_assert!(rate > 0.0, "active flow starved");
                // Recover the path by re-deriving: rates are per flow; we
                // can't read paths back, so recompute usage via flows input.
            }
            for ((link_sel, _), &fid) in flows.iter().zip(ids.iter()) {
                let rate = net.flow_rate(fid).unwrap();
                let mut path: Vec<usize> =
                    link_sel.iter().map(|ix| ix.index(caps.len())).collect();
                path.sort();
                path.dedup();
                for li in path {
                    used[li] += rate;
                }
            }
            for (u, c) in used.iter().zip(caps.iter()) {
                prop_assert!(*u <= c * (1.0 + 1e-9) + 1e-9, "link oversubscribed: {u} > {c}");
            }
            // All chunks eventually deliver.
            let mut count = 0;
            while let Some(t) = net.next_event() {
                count += net.poll(t).len();
            }
            prop_assert_eq!(count, flows.len());
        }
    }
}
