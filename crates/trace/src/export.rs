//! Trace serialization: `events.jsonl` and Chrome trace-event JSON
//! (Perfetto-loadable). Pure string builders — writing the bytes to disk is
//! the bench layer's job (the workspace's designated I/O seam), so this
//! crate stays free of host I/O and passes the determinism linter untouched.

use crate::analyze::{attempts, Outcome};
use crate::{TimedEvent, TraceEvent};
use memres_des::json::num;

/// Microsecond timestamp with fixed 3-decimal nanosecond fraction — integer
/// math only, so the rendering is byte-stable everywhere.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The event's payload as JSON object members (no braces), fixed key order.
fn payload(ev: &TraceEvent) -> String {
    match *ev {
        TraceEvent::JobArrived { job, tenant } | TraceEvent::JobAdmitted { job, tenant } => {
            format!("\"job\":{job},\"tenant\":{tenant}")
        }
        TraceEvent::JobStart { job } => format!("\"job\":{job}"),
        TraceEvent::JobEnd { job, aborted } => format!("\"job\":{job},\"aborted\":{aborted}"),
        TraceEvent::StageStart { stage, tasks } => format!("\"stage\":{stage},\"tasks\":{tasks}"),
        TraceEvent::TaskQueued {
            task,
            stage,
            class,
            attempt,
        } => format!(
            "\"task\":{task},\"stage\":{stage},\"class\":\"{}\",\"attempt\":{attempt}",
            class.name()
        ),
        TraceEvent::TaskLaunched {
            task,
            node,
            class,
            attempt,
            queue_delay,
            speculative,
        } => format!(
            "\"task\":{task},\"node\":{node},\"class\":\"{}\",\"attempt\":{attempt},\"queue_delay_ns\":{},\"speculative\":{speculative}",
            class.name(),
            queue_delay.as_nanos()
        ),
        TraceEvent::TaskFinished {
            task,
            node,
            class,
            attempt,
            ghost,
        } => format!(
            "\"task\":{task},\"node\":{node},\"class\":\"{}\",\"attempt\":{attempt},\"ghost\":{ghost}",
            class.name()
        ),
        TraceEvent::TaskRetried {
            task,
            node,
            attempt,
            wasted,
            backoff,
        } => format!(
            "\"task\":{task},\"node\":{node},\"attempt\":{attempt},\"wasted_ns\":{},\"backoff_ns\":{}",
            wasted.as_nanos(),
            backoff.as_nanos()
        ),
        TraceEvent::DelayWait { node, until } => {
            format!("\"node\":{node},\"until_ns\":{}", until.as_nanos())
        }
        TraceEvent::ElbDecline { node } => format!("\"node\":{node}"),
        TraceEvent::CadGate { node, until } => {
            format!("\"node\":{node},\"until_ns\":{}", until.as_nanos())
        }
        TraceEvent::Speculate { task, twin } => format!("\"task\":{task},\"twin\":{twin}"),
        TraceEvent::FlowStart { flow } => format!("\"flow\":{flow}"),
        TraceEvent::FlowEnd { flow, bytes, dur } => format!(
            "\"flow\":{flow},\"bytes\":{},\"dur_ns\":{}",
            num(bytes.get()),
            dur.as_nanos()
        ),
        TraceEvent::LockAcquire { file, client } => {
            format!("\"file\":{file},\"client\":{client}")
        }
        TraceEvent::LockRelease { file } => format!("\"file\":{file}"),
        TraceEvent::LockRevoke { file, dirty_bytes } => format!(
            "\"file\":{file},\"dirty_bytes\":{}",
            num(dirty_bytes.get())
        ),
        TraceEvent::LockWaitStart { task } => format!("\"task\":{task}"),
        TraceEvent::LockWaitEnd { task } => format!("\"task\":{task}"),
        TraceEvent::LockWaitFor { task, dur } => {
            format!("\"task\":{task},\"dur_ns\":{}", dur.as_nanos())
        }
        TraceEvent::GcStart { node }
        | TraceEvent::GcEnd { node }
        | TraceEvent::BufFull { node }
        | TraceEvent::BufDrained { node } => format!("\"node\":{node}"),
        TraceEvent::FaultInjected { kind, node } => {
            format!("\"fault\":\"{kind}\",\"node\":{node}")
        }
        TraceEvent::NodeDown { node }
        | TraceEvent::NodeUp { node }
        | TraceEvent::Blacklisted { node } => format!("\"node\":{node}"),
        TraceEvent::BlocksLost { node, blocks } => {
            format!("\"node\":{node},\"blocks\":{blocks}")
        }
        TraceEvent::Rehost { from, to } => format!("\"from\":{from},\"to\":{to}"),
        TraceEvent::GhostsSpawned { node, count } => {
            format!("\"node\":{node},\"count\":{count}")
        }
    }
}

/// Node lane an event renders on in the timeline (0 when not node-scoped).
fn lane(ev: &TraceEvent) -> u32 {
    match *ev {
        TraceEvent::TaskLaunched { node, .. }
        | TraceEvent::TaskFinished { node, .. }
        | TraceEvent::TaskRetried { node, .. }
        | TraceEvent::DelayWait { node, .. }
        | TraceEvent::ElbDecline { node }
        | TraceEvent::CadGate { node, .. }
        | TraceEvent::GcStart { node }
        | TraceEvent::GcEnd { node }
        | TraceEvent::BufFull { node }
        | TraceEvent::BufDrained { node }
        | TraceEvent::FaultInjected { node, .. }
        | TraceEvent::NodeDown { node }
        | TraceEvent::NodeUp { node }
        | TraceEvent::Blacklisted { node }
        | TraceEvent::BlocksLost { node, .. }
        | TraceEvent::GhostsSpawned { node, .. } => node,
        _ => 0,
    }
}

/// One JSON object per line, in emission order: the compact machine-readable
/// form consumed by downstream tooling and the determinism tests.
pub fn events_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{{\"at_ns\":{},\"seq\":{},\"type\":\"{}\",{}}}\n",
            e.at.as_nanos(),
            e.seq,
            e.ev.kind(),
            payload(&e.ev)
        ));
    }
    out
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form), ready
/// for Perfetto / `chrome://tracing`. Task attempts become complete ("X")
/// events on a per-node lane; everything else becomes an instant ("i").
pub fn chrome_trace_json(events: &[TimedEvent]) -> String {
    let mut rows: Vec<String> = Vec::new();
    for a in attempts(events) {
        let name = match a.outcome {
            Outcome::Completed => a.class.name().to_string(),
            Outcome::Failed => format!("{}.failed", a.class.name()),
            Outcome::Ghost => format!("{}.ghost", a.class.name()),
        };
        rows.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"task\":{},\"attempt\":{}}}}}",
            us(a.start.as_nanos()),
            us(a.dur().as_nanos()),
            a.node,
            a.task,
            a.attempt
        ));
    }
    for e in events {
        if matches!(
            e.ev,
            TraceEvent::TaskLaunched { .. } | TraceEvent::TaskFinished { .. }
        ) {
            continue; // rendered as the "X" rows above
        }
        rows.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{{}}}}}",
            e.ev.kind(),
            us(e.at.as_nanos()),
            lane(&e.ev),
            payload(&e.ev)
        ));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&rows.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskClass;
    use memres_des::time::{SimDuration, SimTime};
    use memres_des::Bytes;

    fn sample() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                at: SimTime(0),
                seq: 0,
                ev: TraceEvent::JobStart { job: 1 },
            },
            TimedEvent {
                at: SimTime(1_500),
                seq: 1,
                ev: TraceEvent::TaskLaunched {
                    task: 3,
                    node: 2,
                    class: TaskClass::Compute,
                    attempt: 0,
                    queue_delay: SimDuration::from_nanos(1_500),
                    speculative: false,
                },
            },
            TimedEvent {
                at: SimTime(9_000),
                seq: 2,
                ev: TraceEvent::TaskFinished {
                    task: 3,
                    node: 2,
                    class: TaskClass::Compute,
                    attempt: 0,
                    ghost: false,
                },
            },
            TimedEvent {
                at: SimTime(9_000),
                seq: 3,
                ev: TraceEvent::FlowEnd {
                    flow: 7,
                    bytes: Bytes(1024.0),
                    dur: SimDuration::from_nanos(500),
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line_in_order() {
        let s = events_jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"at_ns\":0,\"seq\":0,\"type\":\"job_start\",\"job\":1}"
        );
        assert!(lines[1].contains("\"type\":\"task_launched\""));
        assert!(lines[3].contains("\"bytes\":1024.0"));
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let s = chrome_trace_json(&sample());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("}"));
        // The compute attempt: launched at 1.5 µs, 7.5 µs long, on node 2.
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"ts\":1.500,\"dur\":7.500"), "{s}");
        assert!(s.contains("\"tid\":2"), "{s}");
        // Non-task events render as instants.
        assert!(s.contains("\"name\":\"job_start\""));
        assert!(s.contains("\"name\":\"flow_end\""));
        // Launch/finish pairs are folded into the X rows, not duplicated.
        assert!(!s.contains("\"name\":\"task_launched\""));
    }

    #[test]
    fn timestamps_render_with_fixed_nanosecond_fraction() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }
}
