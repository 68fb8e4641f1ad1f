//! `inproc-session-hot`: `Kdc::handle` called in process, back to back
//! on one thread, in a realm of 32 users and 16 services. A session is one
//! AS exchange, then one TGS exchange per service under that TGT. Every
//! record and schedule is warm and there is no socket, so DES, the codec,
//! replay-cache inserts and telemetry take nearly all the time.

use crate::common::*;
use crate::trace::{SpanId, Tracer};
use krb_kdc::KdcRole;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Sessions per latency chunk (see `chunked_p50`).
const SESSIONS_PER_CHUNK: usize = 250;

/// Set-ups per `setup_s` chunk (see `chunked_p50`).
const SETUPS_PER_CHUNK: usize = 10;

/// How big one run is.
#[derive(Clone, Debug)]
pub struct HotSize {
    /// Users in the realm.
    pub users: usize,
    /// Services in the realm (one TGS exchange each per session).
    pub services: usize,
    /// Sessions per run.
    pub sessions: usize,
    /// Set-ups per run, spread through the sessions in bursts
    /// (`setup_s` is their chunked p50).
    pub setups: usize,
    /// One session in this many gets the deep ticket checks.
    pub sample_every: u64,
}

impl HotSize {
    /// The benchmark's size for a run of nominal length `seconds`.
    pub fn for_seconds(seconds: u64) -> Self {
        HotSize {
            users: 32,
            services: 16,
            sessions: 2_500 * seconds as usize,
            setups: 200,
            sample_every: 64,
        }
    }
}

/// Run the workload.
pub fn run(size: &HotSize, seed: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    let clock = ProtoClock::new();
    let deploy = |tr: &mut Tracer| {
        let (keys, mut db) = Keyring::generate(size.users, size.services, seed);
        keys.bulk_register(&mut db, tr);
        let (kdc, journal) = serve(db, &clock, KdcRole::Master, seed, tr);
        (keys, kdc, journal)
    };
    let (keys, kdc, journal) = deploy(tr);
    // One set-up here takes microseconds, so a single burst of set-ups
    // would land in one host speed state: bursts of `SETUPS_PER_CHUNK`
    // are spread evenly through the session loop, timed, and thrown away.
    let mut setups = Vec::with_capacity(size.setups);
    let bursts = (size.setups / SETUPS_PER_CHUNK).max(1);
    // Bursts fall on chunk boundaries, so no throughput chunk times one.
    let setup_every =
        size.sessions.div_ceil(bursts).div_ceil(SESSIONS_PER_CHUNK) * SESSIONS_PER_CHUNK;

    // The inputs: each session's user and the service order it walks.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    let sessions: Vec<(usize, usize)> = (0..size.sessions)
        .map(|_| {
            (
                rng.random_range(0..size.users),
                rng.random_range(0..size.services),
            )
        })
        .collect();

    let mut t = InProc(kdc.clone());
    let mut tally = Tally::default();
    let mut checks = Vec::new();
    let mut login_us = Vec::with_capacity(size.sessions);
    let mut tgs_us = Vec::with_capacity(size.sessions * size.services);
    let mut probe = None;
    let mut tickets = ChunkRate::new((SESSIONS_PER_CHUNK * (1 + size.services)) as u64);
    let start = Instant::now();
    let mut in_setup = 0.0;
    for (n, &(u, first)) in sessions.iter().enumerate() {
        if n % setup_every == 0 {
            for _ in 0..SETUPS_PER_CHUNK {
                let start = Instant::now();
                let spare = std::hint::black_box(deploy(tr));
                let secs = start.elapsed().as_secs_f64();
                drop(spare);
                setups.push(secs);
                in_setup += secs;
            }
            tickets.restart();
        }
        let trace = n as u64 + 1;
        let client = user_principal(u);
        report.attempted += 1 + size.services as u64;
        let mut l = match login(
            &mut t,
            &client,
            &keys.users[u],
            &service_principal(first),
            &clock,
            &mut tally,
            tr,
            trace,
        ) {
            Ok(l) => l,
            Err(e) => {
                report.failed += 1 + size.services as u64;
                report.problems.push(format!("session {n}: {e}"));
                continue;
            }
        };
        tickets.add(2);
        login_us.push(l.login_us);
        tgs_us.push(l.tgs_us);
        let deep = sampled(seed, n as u64, size.sample_every);
        if deep {
            checks.push(issued_tgt(&l.tgt.cred, &client, &keys));
            checks.push(issued_service(&l.svc, &client, first, &keys));
        }
        let root = tr.open("session", trace, SpanId::NONE);
        for k in 1..size.services {
            let s = (first + k) % size.services;
            match tgs(
                &mut t,
                &mut l.tgt,
                &client,
                &service_principal(s),
                &clock,
                &mut tally,
                tr,
                trace,
                root,
            ) {
                Ok((cred, _, us)) => {
                    tickets.add(1);
                    tgs_us.push(us);
                    if deep {
                        checks.push(issued_service(&cred, &client, s, &keys));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report.problems.push(format!("session {n}: {e}"));
                }
            }
        }
        tr.close(root);
        probe.get_or_insert(l.tgs_bytes);
    }
    let secs = start.elapsed().as_secs_f64() - in_setup;
    let busy_us: f64 = ["kdc.handle.as", "kdc.handle.tgs"]
        .iter()
        .map(|n| tr.durations_us(n).iter().sum::<f64>())
        .sum();
    match &probe {
        Some(bytes) => replay_probe(&mut t, bytes, &mut tally, tr, &mut report.problems),
        None => report
            .problems
            .push("no TGS_REQ was answered, so none could be replayed".into()),
    }
    for c in &checks {
        if let Err(e) = check_ticket(c) {
            report.problems.push(e);
        }
    }
    tally.compare("in-process KDC", &kdc, &mut report.problems);

    report.metric("setup_s", chunked_p50(&setups, SETUPS_PER_CHUNK), "s");
    report.metric("tickets_rps", tickets.rate(), "tickets/s");
    report.metric(
        "login_p50_us",
        chunked_p50(&login_us, SESSIONS_PER_CHUNK),
        "us",
    );
    report.metric(
        "tgs_p50_us",
        chunked_p50(&tgs_us, SESSIONS_PER_CHUNK * size.services),
        "us",
    );
    if tr.on() {
        report.metric("kdc.busy_frac", busy_us / (secs * 1e6), "ratio");
        let names = sessions
            .iter()
            .take(20_000)
            .map(|&(u, _)| (user_name(u), String::new()));
        time_gets(&kdc, names, tr);
    }
    report.metric("kdc.sched_hit_ratio", sched_hit_ratio(&kdc), "ratio");
    kdc_counts(&mut report, &kdc, &journal);
    report
}
