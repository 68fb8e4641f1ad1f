//! The realm benchmark: three workloads over the repository's protocol
//! crates, timed end to end and, in traced runs, layer by layer.
//!
//! A run does a fixed count of operations (scaled from `--seconds` by a
//! constant rate, never by how fast the program is), checks every reply
//! it sampled against keys it holds, and prints one JSON result line.

pub mod common;
pub mod hot;
pub mod kpasswd;
pub mod sendorder;
pub mod trace;
pub mod udp;
pub mod zipf;

use common::{median, Report};
use trace::Tracer;

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tickets_rps", "tickets/s"),
    ("login_p50_us", "us"),
    ("tgs_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kpasswd_p50_ms", "ms"),
    ("prop_p50_ms", "ms"),
    ("netsim.transport_us", "us"),
    ("kdc.as_us", "us"),
    ("kdc.tgs_us", "us"),
    ("kdc.busy_frac", "ratio"),
    ("kdc.sched_hit_ratio", "ratio"),
    ("kdc.new_ms", "ms"),
    ("kdc.install_db_ms", "ms"),
    ("kdc.as_ok", "count"),
    ("kdc.tgs_ok", "count"),
    ("kdc.errors", "count"),
    ("kdb.bulk_register_ms", "ms"),
    ("kdb.get_us", "us"),
    ("kadm.handle_ms", "ms"),
    ("kprop.segment_us", "us"),
    ("kprop.apply_ms", "ms"),
    ("kprop.snapshot_db_ms", "ms"),
    ("kprop.bootstrap_ms", "ms"),
    ("krb.as_client_us", "us"),
    ("krb.tgs_client_us", "us"),
    ("telemetry.journal_events", "count"),
    ("telemetry.journal_dropped", "count"),
];

/// The workload names.
pub const WORKLOADS: &[&str] = &["udp-login-1m", "inproc-session-hot", "kpasswd-prop-100k"];

/// A workload at a given size.
#[derive(Clone, Debug)]
pub enum Workload {
    /// `udp-login-1m`.
    Udp(udp::UdpSize),
    /// `inproc-session-hot`.
    Hot(hot::HotSize),
    /// `kpasswd-prop-100k`.
    Kpasswd(kpasswd::KpasswdSize),
}

impl Workload {
    /// The named workload sized for a run of nominal length `seconds`.
    pub fn named(name: &str, seconds: u64) -> Option<Self> {
        match name {
            "udp-login-1m" => Some(Workload::Udp(udp::UdpSize::for_seconds(seconds))),
            "inproc-session-hot" => Some(Workload::Hot(hot::HotSize::for_seconds(seconds))),
            "kpasswd-prop-100k" => Some(Workload::Kpasswd(kpasswd::KpasswdSize::for_seconds(
                seconds,
            ))),
            _ => None,
        }
    }

    /// Run it, recording spans into `tr` when it is on. The report holds
    /// every metric of the run, end-to-end and per-layer.
    pub fn run(&self, seed: u64, tr: &mut Tracer) -> Report {
        let mut report = match self {
            Workload::Udp(size) => udp::run(size, seed, tr),
            Workload::Hot(size) => hot::run(size, seed, tr),
            Workload::Kpasswd(size) => kpasswd::run(size, seed, tr),
        };
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        if tr.on() {
            span_metrics(&mut report, tr);
        }
        report
    }
}

/// Per-layer metrics read from the spans: medians of each timed call.
fn span_metrics(report: &mut Report, tr: &Tracer) {
    let med = |name: &str| {
        let d = tr.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    // A client's share of one exchange: its request build plus its reply
    // read, paired in order (both run in send order).
    let paired = |build: &str, read: &str| {
        let sums: Vec<f64> = tr
            .durations_us(build)
            .iter()
            .zip(tr.durations_us(read))
            .map(|(a, b)| a + b)
            .collect();
        if sums.is_empty() {
            0.0
        } else {
            median(&sums)
        }
    };
    report.metric("kdc.as_us", med("kdc.handle.as"), "us");
    report.metric("kdc.tgs_us", med("kdc.handle.tgs"), "us");
    report.metric("kdc.new_ms", med("kdc.new") / 1e3, "ms");
    report.metric("kdc.install_db_ms", med("kdc.install_db") / 1e3, "ms");
    report.metric("kdb.bulk_register_ms", med("kdb.bulk_register") / 1e3, "ms");
    report.metric("kdb.get_us", med("kdb.get"), "us");
    report.metric("kadm.handle_ms", med("kadm.handle") / 1e3, "ms");
    report.metric("kprop.segment_us", med("kprop.build_incr_segment"), "us");
    report.metric("kprop.apply_ms", med("kprop.apply") / 1e3, "ms");
    report.metric("kprop.snapshot_db_ms", med("kprop.snapshot_db") / 1e3, "ms");
    report.metric("kprop.bootstrap_ms", med("kprop.bootstrap") / 1e3, "ms");
    report.metric(
        "krb.as_client_us",
        paired("krb.as_build", "krb.as_read"),
        "us",
    );
    report.metric(
        "krb.tgs_client_us",
        paired("krb.tgs_build", "krb.tgs_read"),
        "us",
    );
}

/// The metrics a run prints: every end-to-end metric untraced, every
/// per-layer metric traced (0 where the workload has no such layer).
pub fn selected(report: &Report, traced: bool) -> Vec<(String, f64, &'static str)> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    list.iter()
        .map(|&(name, unit)| (name.to_string(), report.get(name).unwrap_or(0.0), unit))
        .collect()
}
