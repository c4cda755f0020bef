//! # memres-des — discrete-event simulation kernel
//!
//! The foundation of the `memres` stack: a deterministic event calendar and
//! drive loop ([`Simulation`]), a processor-sharing fluid resource
//! ([`PsResource`]) reused by every storage and server model, and the small
//! statistics toolkit the metrics layer is built on.
//!
//! Design notes:
//! * Time is integer nanoseconds ([`SimTime`]); equal-time events fire in
//!   insertion order, so runs are bit-for-bit reproducible.
//! * Components that must retract scheduled events use the *stale-event*
//!   idiom with [`Gen`] generation counters instead of calendar surgery.
//! * Simulation-visible keyed state lives in [`DetMap`]/[`DetSet`] —
//!   insertion-ordered containers whose iteration order is a pure function
//!   of the operation sequence, never of hash salts (DESIGN.md §4.10 R1).

pub mod bytes;
pub mod det;
pub mod json;
pub mod ps;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod time;

pub use bytes::Bytes;
pub use det::{DetMap, DetSet};
pub use ps::{JobKey, PsResource};
pub use queue::{EventQueue, QueueStats};
pub use sim::{EngineStats, Gen, Model, Outbox, Simulation};
pub use stats::{Cdf, LogHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};

/// Bytes-per-unit helpers so model parameters read like the paper's units.
pub mod units {
    pub const KB: f64 = 1024.0;
    pub const MB: f64 = 1024.0 * 1024.0;
    pub const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    pub const TB: f64 = 1024.0 * GB;

    pub const KB_U: u64 = 1024;
    pub const MB_U: u64 = 1024 * 1024;
    pub const GB_U: u64 = 1024 * 1024 * 1024;
    pub const TB_U: u64 = 1024 * GB_U;

    /// Pretty-print a byte count the way the paper labels its x-axes.
    pub fn human_bytes(b: f64) -> String {
        if b >= TB {
            format!("{:.1} TB", b / TB)
        } else if b >= GB {
            format!("{:.0} GB", b / GB)
        } else if b >= MB {
            format!("{:.0} MB", b / MB)
        } else if b >= KB {
            format!("{:.0} KB", b / KB)
        } else {
            format!("{b:.0} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::units::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512.0), "512 B");
        assert_eq!(human_bytes(2.0 * KB), "2 KB");
        assert_eq!(human_bytes(128.0 * MB), "128 MB");
        assert_eq!(human_bytes(47.0 * GB), "47 GB");
        assert_eq!(human_bytes(1.5 * TB), "1.5 TB");
    }
}
