//! Tiny-size runs of each workload: every verifier and property check of
//! the full-size benchmark runs here too, traced and untraced.

use krb_perfbench::common::{self, check_ticket, issued_service, issued_tgt, Keyring, Report};
use krb_perfbench::hot::HotSize;
use krb_perfbench::kpasswd::KpasswdSize;
use krb_perfbench::trace::Tracer;
use krb_perfbench::udp::UdpSize;
use krb_perfbench::{selected, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::Mutex;

/// `udp-login-1m` pins its threads with `taskset`, whose exit raises a
/// signal that would stop another test's `UdpServer` mid-receive: UDP
/// runs take turns.
static UDP_RUNS: Mutex<()> = Mutex::new(());

/// Run a tiny workload, one UDP run at a time.
fn run_tiny(name: &str, seed: u64, tr: &mut Tracer) -> Report {
    let _turn =
        (name == "udp-login-1m").then(|| UDP_RUNS.lock().unwrap_or_else(|e| e.into_inner()));
    tiny(name).run(seed, tr)
}

fn tiny(name: &str) -> Workload {
    match name {
        "udp-login-1m" => Workload::Udp(UdpSize {
            users: 2_000,
            services: 50,
            unloaded: 100,
            saturated: 300,
            window: 8,
            setups: 2,
            sample_every: 4,
        }),
        "inproc-session-hot" => Workload::Hot(HotSize {
            users: 4,
            services: 3,
            sessions: 50,
            setups: 2,
            sample_every: 2,
        }),
        "kpasswd-prop-100k" => Workload::Kpasswd(KpasswdSize {
            users: 500,
            churn: 4,
            services: 10,
            rounds: 6,
            batch: 20,
            setups: 2,
            sample_every: 4,
        }),
        other => panic!("unknown workload {other}"),
    }
}

fn assert_clean(name: &str, report: &Report) {
    assert!(report.correct(), "{name}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{name}");
    assert!(report.attempted > 0, "{name}");
    for &(metric, _) in END_TO_END {
        let v = report
            .get(metric)
            .unwrap_or_else(|| panic!("{name}: no {metric}"));
        assert!(v.is_finite() && v > 0.0, "{name}: {metric} = {v}");
    }
}

#[test]
fn every_workload_passes_every_check_untraced() {
    for name in WORKLOADS {
        let mut tr = Tracer::new(false);
        let report = run_tiny(name, 7, &mut tr);
        assert_clean(name, &report);
        assert!(
            tr.spans().is_empty(),
            "{name}: an untraced run recorded spans"
        );
        assert_eq!(selected(&report, false).len(), END_TO_END.len());
    }
}

#[test]
fn every_workload_passes_every_check_traced() {
    for name in WORKLOADS {
        let mut tr = Tracer::new(true);
        let report = run_tiny(name, 8, &mut tr);
        assert_clean(name, &report);
        let layers = selected(&report, true);
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |m: &str| {
            layers
                .iter()
                .find(|l| l.0 == m)
                .map(|l| l.1)
                .unwrap_or(-1.0)
        };
        for m in [
            "kdc.as_us",
            "kdc.tgs_us",
            "kdc.busy_frac",
            "kdc.new_ms",
            "kdb.bulk_register_ms",
            "kdb.get_us",
            "krb.as_client_us",
            "krb.tgs_client_us",
        ] {
            assert!(get(m) > 0.0, "{name}: {m} = {}", get(m));
        }
        assert_eq!(
            get("kdc.errors"),
            1.0,
            "{name}: exactly the replay probe is refused"
        );
        let udp_only = get("netsim.transport_us");
        assert_eq!(
            udp_only > 0.0,
            *name == "udp-login-1m",
            "{name}: transport {udp_only}"
        );
        for m in [
            "kpasswd_p50_ms",
            "prop_p50_ms",
            "kadm.handle_ms",
            "kprop.segment_us",
            "kprop.apply_ms",
            "kprop.snapshot_db_ms",
            "kprop.bootstrap_ms",
            "kdc.install_db_ms",
        ] {
            assert_eq!(
                get(m) > 0.0,
                *name == "kpasswd-prop-100k",
                "{name}: {m} = {}",
                get(m)
            );
        }
        // Client builds and reads pair up one to one.
        for (build, read) in [
            ("krb.as_build", "krb.as_read"),
            ("krb.tgs_build", "krb.tgs_read"),
        ] {
            assert_eq!(
                tr.durations_us(build).len(),
                tr.durations_us(read).len(),
                "{name}: {build} vs {read}"
            );
        }
        // Every child span lies inside its parent and shares its trace.
        for s in tr.spans() {
            assert!(
                s.end >= s.start,
                "{name}: span {} ends before it starts",
                s.name
            );
            if let Some(p) = s.parent {
                let p = &tr.spans()[p as usize];
                assert_eq!(p.trace, s.trace, "{name}: {} under {}", s.name, p.name);
                assert!(
                    s.start >= p.start && s.end <= p.end,
                    "{name}: {} outside {}",
                    s.name,
                    p.name
                );
            }
        }
    }
}

#[test]
fn the_ticket_checks_reject_what_the_kdc_did_not_issue() {
    // One honest login in a tiny realm, then the checks against wrong
    // expectations: another service's key, a tighter max_life, another
    // client.
    let mut tr = Tracer::new(false);
    let clock = common::ProtoClock::new();
    let (keys, mut db) = Keyring::generate(3, 2, 5);
    keys.bulk_register(&mut db, &mut tr);
    let (kdc, _journal) = common::serve(db, &clock, krb_kdc::KdcRole::Master, 5, &mut tr);
    let client = common::user_principal(1);
    let mut tally = common::Tally::default();
    let mut t = common::InProc(kdc.clone());
    let l = common::login(
        &mut t,
        &client,
        &keys.users[1],
        &common::service_principal(0),
        &clock,
        &mut tally,
        &mut tr,
        1,
    )
    .expect("honest login");
    assert!(check_ticket(&issued_tgt(&l.tgt.cred, &client, &keys)).is_ok());
    let good = issued_service(&l.svc, &client, 0, &keys);
    assert!(check_ticket(&good).is_ok());

    let wrong_key = issued_service(&l.svc, &client, 1, &keys);
    assert!(
        check_ticket(&wrong_key).is_err(),
        "opened under another service's key"
    );
    let mut tight = issued_service(&l.svc, &client, 0, &keys);
    tight.max_life = l.svc.life - 1;
    assert!(
        check_ticket(&tight).is_err(),
        "life above max_life accepted"
    );
    let mut other = issued_service(&l.svc, &client, 0, &keys);
    other.client.name = common::user_name(2);
    assert!(
        check_ticket(&other).is_err(),
        "ticket accepted for another client"
    );
    let mut swapped = issued_service(&l.svc, &client, 0, &keys);
    swapped.cred.session_key = l.tgt.cred.session_key.clone();
    assert!(
        check_ticket(&swapped).is_err(),
        "ticket accepted with another session key"
    );
    let mut problems = Vec::new();
    tally.compare("kdc", &kdc, &mut problems);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.0))
        .collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
    assert_eq!(
        spec.matches("\"name\":").count(),
        names.len(),
        "BENCHMARK.json names something else too"
    );
}
