//! `udp-login-1m`: logins over real UDP on loopback against a KDC served
//! by `UdpServer`, in a realm of 10^6 users and 10^3 services drawn by
//! seeded Zipf rank. One client thread drives one persistent socket
//! through two phases: unloaded, one login in flight, and saturated, a
//! fixed window of logins in flight with replies matched to requests in
//! send order.

use crate::common::*;
use crate::sendorder::SendOrder;
use crate::trace::{SpanId, Tracer};
use crate::zipf::Zipf;
use krb_kdb::MemStore;
use krb_kdc::{Kdc, KdcRole};
use krb_netsim::{Packet, UdpServer};
use krb_telemetry::Journal;
use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How big one run is.
#[derive(Clone, Debug)]
pub struct UdpSize {
    /// Users in the realm.
    pub users: usize,
    /// Services in the realm.
    pub services: usize,
    /// Logins in the unloaded phase.
    pub unloaded: usize,
    /// Logins in the saturated phase.
    pub saturated: usize,
    /// Logins in flight during the saturated phase.
    pub window: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// One login in this many gets the deep ticket checks.
    pub sample_every: u64,
}

impl UdpSize {
    /// The benchmark's size for a run of nominal length `seconds`.
    pub fn for_seconds(seconds: u64) -> Self {
        UdpSize {
            users: 1_000_000,
            services: 1_000,
            unloaded: 2_000 * seconds as usize,
            saturated: 6_000 * seconds as usize,
            window: 16,
            setups: 3,
            sample_every: 64,
        }
    }
}

/// Unloaded logins per latency chunk (see `chunked_p50`).
const LOGINS_PER_CHUNK: usize = 500;
/// Verified replies per throughput chunk of the saturated blocks.
const TICKETS_PER_CHUNK: u64 = 2_000;
/// Unloaded and saturated blocks alternate this many times per run.
const BLOCKS: usize = 8;

/// Where the two threads run. Left to the scheduler, the server thread
/// sometimes shares the client's CPU and sometimes not, for a whole run,
/// and a loopback round trip differs by half between the two placements.
const CLIENT_CPU: usize = 0;
const SERVER_CPU: usize = 1;

/// Pin the calling thread to `cpu` with `taskset` (std has no affinity
/// call and the workspace allows no `unsafe`). Threads it spawns later
/// inherit the pin. A failure (no such CPU, no `taskset`) leaves
/// placement to the scheduler.
fn pin_this_thread(cpu: usize) {
    let Ok(me) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = me.file_name().and_then(|t| t.to_str()).map(str::to_string) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Server-side handle spans, stamped on the server thread: (start, end)
/// in ns since the tracer origin, in arrival order.
type ServerSpans = Arc<Mutex<Vec<(u64, u64)>>>;

struct Deployment {
    keys: Keyring,
    kdc: Arc<Kdc<MemStore>>,
    journal: Arc<Journal>,
    server: UdpServer,
    handled: Option<ServerSpans>,
}

fn deploy(size: &UdpSize, seed: u64, clock: &ProtoClock, tr: &mut Tracer) -> Deployment {
    let (keys, mut db) = Keyring::generate(size.users, size.services, seed);
    keys.bulk_register(&mut db, tr);
    let (kdc, journal) = serve(db, clock, KdcRole::Master, seed, tr);
    let handled: Option<ServerSpans> = tr.on().then(|| Arc::new(Mutex::new(Vec::new())));
    let server_kdc = Arc::clone(&kdc);
    let server_spans = handled.clone();
    let origin = tr.origin();
    let server = UdpServer::spawn("127.0.0.1:0", move |p: &Packet| {
        if p.payload.is_empty() {
            // The client's placement handshake, not a request.
            pin_this_thread(SERVER_CPU);
            return Some(Vec::new());
        }
        let Some(spans) = &server_spans else {
            return Some(server_kdc.handle(&p.payload, p.src.addr.0));
        };
        let start = origin.elapsed().as_nanos() as u64;
        let reply = server_kdc.handle(&p.payload, p.src.addr.0);
        let end = origin.elapsed().as_nanos() as u64;
        spans.lock().expect("server span table").push((start, end));
        Some(reply)
    })
    .expect("bind a loopback UDP port");
    Deployment {
        keys,
        kdc,
        journal,
        server,
        handled,
    }
}

/// The client's socket.
struct UdpClient {
    socket: UdpSocket,
    buf: Vec<u8>,
    /// `net.rtt` span, exchange and phase (saturated or not) of every
    /// datagram sent, in send order.
    rtt: Vec<(SpanId, Exchange, bool)>,
    /// Whether the datagrams now being sent belong to a saturated block.
    loaded: bool,
}

impl UdpClient {
    fn connect(server: std::net::SocketAddr) -> Self {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
        socket.connect(server).expect("connect to the KDC");
        socket
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("set timeout");
        UdpClient {
            socket,
            buf: vec![0u8; 65_536],
            rtt: Vec::new(),
            loaded: false,
        }
    }

    /// Have the server thread pin itself (see [`pin_this_thread`]) by
    /// sending it an empty datagram.
    fn place(&mut self) {
        self.socket.send(&[]).expect("placement datagram");
        self.recv().expect("placement reply");
    }

    fn send(&mut self, bytes: &[u8], rtt: SpanId, kind: Exchange) -> Result<(), String> {
        self.rtt.push((rtt, kind, self.loaded));
        self.socket
            .send(bytes)
            .map(drop)
            .map_err(|e| format!("send: {e}"))
    }

    /// One datagram. A signal (the exit of the server's `taskset`) may
    /// interrupt the wait; that is retried, not an error.
    fn recv(&mut self) -> Result<Vec<u8>, String> {
        loop {
            match self.socket.recv(&mut self.buf) {
                Ok(n) => return Ok(self.buf[..n].to_vec()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Count the datagrams still arriving once nothing is in flight.
    fn drain(&mut self) -> u64 {
        self.socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .expect("set timeout");
        let mut strays = 0;
        while self.recv().is_ok() {
            strays += 1;
        }
        strays
    }
}

impl Transport for UdpClient {
    fn exchange(
        &mut self,
        req: &[u8],
        kind: Exchange,
        tr: &mut Tracer,
        trace: u64,
        parent: SpanId,
    ) -> Result<Vec<u8>, String> {
        let span = tr.open("net.rtt", trace, parent);
        self.send(req, span, kind)?;
        let reply = self.recv();
        tr.close(span);
        reply
    }
}

/// One request of the saturated phase, waiting for its reply.
struct Pending {
    login: usize,
    trace: u64,
    root: SpanId,
    rtt: SpanId,
    step: Step,
}

enum Step {
    As { now: u32 },
    Tgs { tgt: Box<TgtSession>, ts: u32 },
}

/// What every block reads.
struct Inputs<'a> {
    keys: &'a Keyring,
    clock: &'a ProtoClock,
    /// `(user, service)` of every login: unloaded ones first.
    draws: &'a [(usize, usize)],
    seed: u64,
    size: &'a UdpSize,
}

/// What the blocks accumulate.
struct Outcome {
    tally: Tally,
    checks: Vec<Issued>,
    problems: Vec<String>,
    login_us: Vec<f64>,
    tgs_us: Vec<f64>,
    probe: Option<Vec<u8>>,
    failed: u64,
    /// Verified replies of the saturated blocks, rated per chunk.
    tickets: ChunkRate,
    /// `[start, end)` of each saturated block, ns since the tracer origin.
    sat_windows: Vec<(u64, u64)>,
}

impl Outcome {
    fn sample(&mut self, inp: &Inputs, login: usize, tgt: &TgtSession, svc: &kerberos::Credential) {
        if sampled(inp.seed, login as u64, inp.size.sample_every) {
            let (u, s) = inp.draws[login];
            let client = user_principal(u);
            self.checks.push(issued_tgt(&tgt.cred, &client, inp.keys));
            self.checks.push(issued_service(svc, &client, s, inp.keys));
        }
    }
}

/// Logins `range` one at a time.
fn unloaded(
    inp: &Inputs,
    range: std::ops::Range<usize>,
    cl: &mut UdpClient,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    cl.loaded = false;
    for i in range {
        let (u, s) = inp.draws[i];
        let client = user_principal(u);
        let service = service_principal(s);
        let key = &inp.keys.users[u];
        match login(
            cl,
            &client,
            key,
            &service,
            inp.clock,
            &mut out.tally,
            tr,
            i as u64 + 1,
        ) {
            Ok(l) => {
                out.login_us.push(l.login_us);
                out.tgs_us.push(l.tgs_us);
                out.sample(inp, i, &l.tgt, &l.svc);
                out.probe.get_or_insert(l.tgs_bytes);
            }
            Err(e) => {
                out.failed += 2;
                out.problems.push(format!("unloaded login {i}: {e}"));
            }
        }
    }
}

/// Logins `range` with `window` of them in flight, replies matched to
/// requests in send order.
fn saturated(
    inp: &Inputs,
    range: std::ops::Range<usize>,
    cl: &mut UdpClient,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    cl.loaded = true;
    let mut matcher: SendOrder<Pending> = SendOrder::new();
    let (mut next, mut completed) = (range.start, 0u64);
    out.tickets.restart();
    let start_ns = tr.now();
    while matcher.in_flight() > 0 || next < range.end {
        // Keep the window full.
        while matcher.in_flight() < inp.size.window && next < range.end {
            let login = next;
            next += 1;
            let trace = login as u64 + 1;
            let root = tr.open("login", trace, SpanId::NONE);
            let client = user_principal(inp.draws[login].0);
            let req = as_request(&client, inp.clock, tr, trace, root);
            let rtt = tr.open("net.rtt", trace, root);
            let p = Pending {
                login,
                trace,
                root,
                rtt,
                step: Step::As { now: req.now },
            };
            if let Err(e) = cl.send(&req.bytes, p.rtt, Exchange::As) {
                out.problems.push(e);
            }
            matcher.sent(p);
        }
        let reply = match cl.recv() {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!(
                    "saturated block: {e} with {} requests in flight",
                    matcher.in_flight()
                ));
                break;
            }
        };
        let tally = &mut out.tally;
        let verified = matcher.received(|p: &Pending| {
            tr.close(p.rtt);
            let (kind, r) = match &p.step {
                Step::As { now } => {
                    let key = &inp.keys.users[inp.draws[p.login].0];
                    (
                        Exchange::As,
                        as_read(&reply, key, *now, tr, p.trace, p.root),
                    )
                }
                Step::Tgs { tgt, ts } => (
                    Exchange::Tgs,
                    tgs_read(&reply, tgt, *ts, tr, p.trace, p.root),
                ),
            };
            tally.count(kind, &r);
            r
        });
        let Some((p, cred)) = verified else { continue };
        out.tickets.add(1);
        match p.step {
            Step::As { .. } => {
                let (u, s) = inp.draws[p.login];
                let mut tgt = TgtSession::new(cred);
                let req = tgs_request(
                    &mut tgt,
                    &user_principal(u),
                    &service_principal(s),
                    inp.clock,
                    tr,
                    p.trace,
                    p.root,
                );
                let rtt = tr.open("net.rtt", p.trace, p.root);
                if let Err(e) = cl.send(&req.bytes, rtt, Exchange::Tgs) {
                    out.problems.push(e);
                }
                matcher.sent(Pending {
                    rtt,
                    step: Step::Tgs {
                        tgt: Box::new(tgt),
                        ts: req.ts,
                    },
                    ..p
                });
            }
            Step::Tgs { tgt, .. } => {
                tr.close(p.root);
                completed += 1;
                out.sample(inp, p.login, &tgt, &cred);
            }
        }
    }
    out.sat_windows.push((start_ns, tr.now()));
    let lost = range.len() as u64 - completed;
    if matcher.failed() > 0 || lost > 0 {
        out.problems.push(format!(
            "saturated block: {} failed pairings, {lost} logins not completed",
            matcher.failed()
        ));
    }
    out.failed += 2 * lost;
}

/// Run the workload.
pub fn run(size: &UdpSize, seed: u64, tr: &mut Tracer) -> Report {
    // Before any other thread exists: `UdpServer` stops serving if a
    // signal interrupts its receive, and a `taskset` exit raises one.
    pin_this_thread(CLIENT_CPU);
    let mut report = Report::default();
    let clock = ProtoClock::new();
    let mut setups = Vec::new();
    let mut dep = None;
    for _ in 0..size.setups {
        drop(dep.take());
        let start = Instant::now();
        dep = Some(deploy(size, seed, &clock, tr));
        setups.push(start.elapsed().as_secs_f64());
    }
    let dep = dep.expect("at least one set-up");

    // The inputs, drawn before any timing: unloaded logins, then saturated.
    let mut users = Zipf::new(size.users, 1.0, seed ^ 0x0051);
    let mut services = Zipf::new(size.services, 1.0, seed ^ 0x0052);
    let draws: Vec<(usize, usize)> = (0..size.unloaded + size.saturated)
        .map(|_| (users.sample(), services.sample()))
        .collect();
    let inp = Inputs {
        keys: &dep.keys,
        clock: &clock,
        draws: &draws,
        seed,
        size,
    };

    let mut cl = UdpClient::connect(dep.server.local_addr);
    cl.place();
    let mut out = Outcome {
        tally: Tally::default(),
        checks: Vec::new(),
        problems: Vec::new(),
        login_us: Vec::new(),
        tgs_us: Vec::new(),
        probe: None,
        failed: 0,
        tickets: ChunkRate::new(TICKETS_PER_CHUNK),
        sat_windows: Vec::new(),
    };
    // The two phases alternate in blocks, so each samples the whole run
    // rather than one stretch of it (see `chunked_p50` on host speed).
    for b in 0..BLOCKS {
        let part = |n: usize, b: usize| n * b / BLOCKS;
        unloaded(
            &inp,
            part(size.unloaded, b)..part(size.unloaded, b + 1),
            &mut cl,
            &mut out,
            tr,
        );
        if b == 0 {
            match out.probe.clone() {
                Some(bytes) => replay_probe(&mut cl, &bytes, &mut out.tally, tr, &mut out.problems),
                None => out
                    .problems
                    .push("no TGS_REQ was answered, so none could be replayed".into()),
            }
        }
        let base = size.unloaded;
        saturated(
            &inp,
            base + part(size.saturated, b)..base + part(size.saturated, b + 1),
            &mut cl,
            &mut out,
            tr,
        );
    }
    // Anything still arriving is a reply nobody asked for.
    let strays = cl.drain();
    if strays > 0 {
        out.problems.push(format!(
            "{strays} replies arrived that no request was waiting for"
        ));
    }
    report.attempted = 2 * (size.unloaded + size.saturated) as u64;
    report.failed = out.failed + strays;
    for c in &out.checks {
        if let Err(e) = check_ticket(c) {
            out.problems.push(e);
        }
    }
    out.tally.compare("udp KDC", &dep.kdc, &mut out.problems);
    report.problems = out.problems;

    report.metric("setup_s", median(&setups), "s");
    report.metric("tickets_rps", out.tickets.rate(), "tickets/s");
    report.metric(
        "login_p50_us",
        chunked_p50(&out.login_us, LOGINS_PER_CHUNK),
        "us",
    );
    report.metric(
        "tgs_p50_us",
        chunked_p50(&out.tgs_us, LOGINS_PER_CHUNK),
        "us",
    );
    eprintln!(
        "udp-login-1m: unloaded login p99 {:.1} us over {} logins",
        quantile(&out.login_us, 0.99),
        out.login_us.len()
    );

    if tr.on() {
        let handled = dep.handled.as_ref().expect("server spans when traced");
        let handled = handled.lock().expect("server span table").clone();
        if handled.len() != cl.rtt.len() {
            report.problems.push(format!(
                "server saw {} datagrams, client sent {}",
                handled.len(),
                cl.rtt.len()
            ));
        }
        let mut transport = Vec::new();
        let mut busy_ns = 0u64;
        for (&(start, end), &(rtt, kind, loaded)) in handled.iter().zip(&cl.rtt) {
            let Some(idx) = rtt.index() else { continue };
            let (trace, rtt_ns) = {
                let span = &tr.spans()[idx];
                (span.trace, span.end.saturating_sub(span.start))
            };
            tr.record(kind.handle_span(), trace, rtt, start, end);
            if loaded {
                busy_ns += end - start;
            } else {
                transport.push(rtt_ns.saturating_sub(end - start) as f64 / 1e3);
            }
        }
        let sat_ns: u64 = out.sat_windows.iter().map(|(a, b)| b - a).sum();
        report.metric("netsim.transport_us", median(&transport), "us");
        report.metric("kdc.busy_frac", busy_ns as f64 / sat_ns as f64, "ratio");
        let names = draws
            .iter()
            .take(20_000)
            .map(|&(u, _)| (user_name(u), String::new()));
        time_gets(&dep.kdc, names, tr);
    }
    report.metric("kdc.sched_hit_ratio", sched_hit_ratio(&dep.kdc), "ratio");
    kdc_counts(&mut report, &dep.kdc, &dep.journal);
    report
}
