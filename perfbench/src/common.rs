//! What the three workloads share: the realm and the keys the benchmark
//! keeps for its verifier, the protocol clock, the client side of a login,
//! the independent ticket checks, and the run report.

use crate::trace::{SpanId, Tracer};
use kerberos::{
    build_as_req, build_tgs_req_with, read_as_reply_with_key, read_tgs_reply_with, Credential,
    ErrorCode, HostAddr, Message, Principal, DEFAULT_SERVICE_LIFE, DEFAULT_TGT_LIFE,
};
use krb_crypto::{DesKey, KeyGenerator, Scheduled};
use krb_kdb::{MemStore, PrincipalDb, Store};
use krb_kdc::{shared_clock, Clock, Kdc};
use krb_telemetry::{wall_clock_us, Journal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The realm every workload serves.
pub const REALM: &str = "ATHENA.MIT.EDU";
/// The master password `kdb_init` derives the master key from.
pub const MASTER_PASSWORD: &str = "perfbench-master";
/// Protocol time at process start (seconds since the epoch).
pub const T0: u32 = 600_000_000;
/// Every client runs on loopback, so every ticket must name this address.
pub const CLIENT_ADDR: HostAddr = [127, 0, 0, 1];
/// Registration lifetime: far beyond any run.
pub const EXPIRATION: u32 = T0 + 5 * 365 * 24 * 3600;
/// `max_life` of users (5-minute units).
pub const USER_MAX_LIFE: u8 = 96;
/// `max_life` of services: below the requested service life, so every
/// service ticket is clamped and the verifier's lifetime check has teeth.
pub const SERVICE_MAX_LIFE: u8 = 72;
/// Bound of each KDC's event journal. Events past it are dropped and
/// counted, as on a server that runs for days.
pub const JOURNAL_CAP: usize = 4096;

/// Name of user `i`.
pub fn user_name(i: usize) -> String {
    format!("u{i}")
}

/// User `i` as a principal of the realm.
pub fn user_principal(i: usize) -> Principal {
    user_principal_named(user_name(i))
}

/// A user (NULL instance) of the realm.
pub fn user_principal_named(name: String) -> Principal {
    Principal {
        name,
        instance: String::new(),
        realm: REALM.into(),
    }
}

/// `rcmd.h<j>`, service `j`.
pub fn service_principal(j: usize) -> Principal {
    Principal {
        name: "rcmd".into(),
        instance: format!("h{j}"),
        realm: REALM.into(),
    }
}

/// The realm's ticket-granting service.
pub fn tgs_principal() -> Principal {
    Principal::tgs(REALM, REALM)
}

/// The protocol clock: a `shared_clock` cell the client advances from the
/// wall clock before each request, so the replay cache and ticket
/// timestamps age as on a live server.
#[derive(Clone)]
pub struct ProtoClock {
    cell: Arc<AtomicU32>,
    origin: Instant,
}

impl Default for ProtoClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ProtoClock {
    /// A clock reading [`T0`] now.
    pub fn new() -> Self {
        ProtoClock {
            cell: Arc::new(AtomicU32::new(T0)),
            origin: Instant::now(),
        }
    }

    /// The KDC's view of this clock.
    pub fn kdc_clock(&self) -> Clock {
        shared_clock(Arc::clone(&self.cell))
    }

    /// Advance the cell to the wall clock and return the reading.
    pub fn tick(&self) -> u32 {
        let now = T0 + self.origin.elapsed().as_secs() as u32;
        self.cell.store(now, Ordering::SeqCst);
        now
    }
}

/// Every key the benchmark generated or derived, held apart from the KDC.
pub struct Keyring {
    /// The master database key.
    pub master: DesKey,
    /// The `krbtgt` key from `kdb_init`.
    pub tgs: DesKey,
    /// The KDBM (`changepw.kerberos`) key from `kdb_init`.
    pub kdbm: DesKey,
    /// User `i`'s key.
    pub users: Vec<DesKey>,
    /// Service `j`'s key.
    pub services: Vec<DesKey>,
}

impl Keyring {
    /// Keys for a realm of `users` users and `services` services, drawn
    /// from `seed`; the `krbtgt` and KDBM keys come from `kdb_init`.
    pub fn generate(users: usize, services: usize, seed: u64) -> (Self, PrincipalDb<MemStore>) {
        let boot = krb_tools::kdb_init(REALM, MASTER_PASSWORD, T0, seed)
            .expect("kdb_init on an empty store");
        let mut keygen = KeyGenerator::new(StdRng::seed_from_u64(seed ^ 0x5eed_cafe));
        let users = (0..users).map(|_| keygen.generate()).collect();
        let services = (0..services).map(|_| keygen.generate()).collect();
        let ring = Keyring {
            master: *boot.db.master_key(),
            tgs: boot.tgs_key,
            kdbm: boot.kdbm_key,
            users,
            services,
        };
        (ring, boot.db)
    }

    /// Register every user and service in `db` through `bulk_register`
    /// (users first, then services with their shorter `max_life`).
    pub fn bulk_register<S: Store>(&self, db: &mut PrincipalDb<S>, tr: &mut Tracer) {
        let users: Vec<(String, String, DesKey)> = self
            .users
            .iter()
            .enumerate()
            .map(|(i, k)| (user_name(i), String::new(), *k))
            .collect();
        let services: Vec<(String, String, DesKey)> = self
            .services
            .iter()
            .enumerate()
            .map(|(j, k)| ("rcmd".to_string(), format!("h{j}"), *k))
            .collect();
        let span = tr.open("kdb.bulk_register", 0, SpanId::NONE);
        db.bulk_register(&users, EXPIRATION, USER_MAX_LIFE, T0, "perfbench.")
            .expect("bulk users");
        db.bulk_register(&services, EXPIRATION, SERVICE_MAX_LIFE, T0, "perfbench.")
            .expect("bulk services");
        tr.close(span);
    }
}

/// Build a KDC and attach what a served KDC has: span timing by the wall
/// clock and a bounded journal. Returns the journal for its counters.
pub fn serve<S: Store>(
    db: PrincipalDb<S>,
    clock: &ProtoClock,
    role: krb_kdc::KdcRole,
    seed: u64,
    tr: &mut Tracer,
) -> (Arc<Kdc<S>>, Arc<Journal>) {
    let span = tr.open("kdc.new", 0, SpanId::NONE);
    let kdc = Kdc::new(
        db,
        krb_kdc::RealmConfig::new(REALM),
        clock.kdc_clock(),
        role,
        seed,
    );
    tr.close(span);
    kdc.set_clock_us(wall_clock_us());
    let journal = Arc::new(Journal::new(JOURNAL_CAP));
    kdc.set_journal(Arc::clone(&journal));
    (Arc::new(kdc), journal)
}

/// Which exchange a datagram carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exchange {
    /// Initial-ticket exchange.
    As,
    /// Ticket-granting exchange.
    Tgs,
}

impl Exchange {
    /// The span name of the KDC handling this exchange.
    pub fn handle_span(self) -> &'static str {
        match self {
            Exchange::As => "kdc.handle.as",
            Exchange::Tgs => "kdc.handle.tgs",
        }
    }
}

/// How a request reaches the KDC and its reply comes back.
pub trait Transport {
    /// One request/reply exchange with one request in flight.
    fn exchange(
        &mut self,
        req: &[u8],
        kind: Exchange,
        tr: &mut Tracer,
        trace: u64,
        parent: SpanId,
    ) -> Result<Vec<u8>, String>;
}

/// `Kdc::handle` called in process.
pub struct InProc<S: Store>(pub Arc<Kdc<S>>);

impl<S: Store> Transport for InProc<S> {
    fn exchange(
        &mut self,
        req: &[u8],
        kind: Exchange,
        tr: &mut Tracer,
        trace: u64,
        parent: SpanId,
    ) -> Result<Vec<u8>, String> {
        let kdc = &self.0;
        Ok(tr.time(kind.handle_span(), trace, parent, || {
            kdc.handle(req, CLIENT_ADDR)
        }))
    }
}

/// The client's count of what the KDC answered, compared at run end with
/// `Kdc::stats()`.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    /// AS exchanges the KDC answered with a ticket.
    pub as_ok: u64,
    /// TGS exchanges the KDC answered with a ticket.
    pub tgs_ok: u64,
    /// Requests the KDC answered with `KRB_ERROR`.
    pub errors: u64,
}

impl Tally {
    /// Count one client-side read result. Client-only codes (`INTK_*`)
    /// mean the KDC issued a ticket the client could not or would not use.
    pub fn count<T>(&mut self, kind: Exchange, result: &Result<T, ErrorCode>) {
        let kdc_answered = match result {
            Ok(_) => true,
            Err(code) => matches!(code, ErrorCode::IntkBadPw | ErrorCode::IntkErr),
        };
        match (kdc_answered, kind) {
            (true, Exchange::As) => self.as_ok += 1,
            (true, Exchange::Tgs) => self.tgs_ok += 1,
            (false, _) => self.errors += 1,
        }
    }

    /// A problem line when the KDC's own counters disagree.
    pub fn compare<S: Store>(&self, who: &str, kdc: &Kdc<S>, problems: &mut Vec<String>) {
        let s = kdc.stats();
        let theirs = Tally {
            as_ok: s.as_ok,
            tgs_ok: s.tgs_ok,
            errors: s.errors,
        };
        if theirs != *self {
            problems.push(format!(
                "{who}: Kdc::stats() {theirs:?} != client tallies {self:?}"
            ));
        }
    }
}

/// A TGT in hand, with its session-key schedule and the last authenticator
/// timestamp used under it (bumped per request, as `Workstation::auth_ts`).
pub struct TgtSession {
    /// The credential.
    pub cred: Credential,
    sched: Option<Scheduled>,
    last_ts: u32,
}

impl TgtSession {
    /// Hold a freshly issued TGT.
    pub fn new(cred: Credential) -> Self {
        TgtSession {
            cred,
            sched: None,
            last_ts: 0,
        }
    }

    fn next_ts(&mut self, now: u32) -> u32 {
        let t = now.max(self.last_ts + 1);
        self.last_ts = t;
        t
    }
}

/// A service ticket and what was asked for it, kept for deferred checks.
pub struct Issued {
    /// The reply as the client decoded it.
    pub cred: Credential,
    /// The client that asked.
    pub client: Principal,
    /// The life it asked for.
    pub requested_life: u8,
    /// The principal `max_life` that bounds it.
    pub max_life: u8,
    /// Key of the service the ticket must open under.
    pub key: DesKey,
}

/// A built and encoded AS request with its nonce.
pub struct AsRequest {
    /// Wire bytes.
    pub bytes: Vec<u8>,
    /// `ctime`, echoed as the reply's nonce.
    pub now: u32,
}

/// Build the AS request for `client`'s TGT (span `krb.as_build`).
pub fn as_request(
    client: &Principal,
    clock: &ProtoClock,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> AsRequest {
    let now = clock.tick();
    let bytes = tr.time("krb.as_build", trace, parent, || {
        build_as_req(client, &tgs_principal(), DEFAULT_TGT_LIFE, now)
    });
    AsRequest { bytes, now }
}

/// Read an AS reply under `key` (span `krb.as_read`).
pub fn as_read(
    reply: &[u8],
    key: &DesKey,
    now: u32,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> Result<Credential, ErrorCode> {
    tr.time("krb.as_read", trace, parent, || {
        read_as_reply_with_key(reply, key, now)
    })
}

/// A built TGS request and the authenticator timestamp it carries.
pub struct TgsRequest {
    /// Wire bytes.
    pub bytes: Vec<u8>,
    /// The authenticator timestamp, echoed as the reply's nonce.
    pub ts: u32,
}

/// Build a TGS request under `session` (span `krb.tgs_build`, which also
/// covers the session-key schedule on the first request under a TGT).
pub fn tgs_request(
    session: &mut TgtSession,
    client: &Principal,
    service: &Principal,
    clock: &ProtoClock,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> TgsRequest {
    let now = clock.tick();
    let ts = session.next_ts(now);
    let span = tr.open("krb.tgs_build", trace, parent);
    let cred = &session.cred;
    let sched = session
        .sched
        .get_or_insert_with(|| Scheduled::new(&cred.key()));
    let bytes = build_tgs_req_with(
        cred,
        sched,
        client,
        CLIENT_ADDR,
        ts,
        service,
        DEFAULT_SERVICE_LIFE,
    );
    tr.close(span);
    TgsRequest { bytes, ts }
}

/// Read a TGS reply under `session` (span `krb.tgs_read`).
pub fn tgs_read(
    reply: &[u8],
    session: &TgtSession,
    ts: u32,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> Result<Credential, ErrorCode> {
    let sched = session
        .sched
        .as_ref()
        .expect("request built before the reply is read");
    tr.time("krb.tgs_read", trace, parent, || {
        read_tgs_reply_with(reply, sched, ts)
    })
}

/// One login with one request in flight: an AS exchange for `krbtgt`,
/// then a TGS exchange for `service`. Returns the TGT session, the service
/// ticket, and the login and TGS times in microseconds.
pub struct Login {
    /// The TGT, reusable for more TGS exchanges.
    pub tgt: TgtSession,
    /// The service ticket.
    pub svc: Credential,
    /// The TGS request bytes (the replay probe resends them).
    pub tgs_bytes: Vec<u8>,
    /// Build of the AS request to verified service ticket, µs.
    pub login_us: f64,
    /// Build of the TGS request to verified service ticket, µs.
    pub tgs_us: f64,
}

/// Run one login (see [`Login`]), tallying what the KDC answered.
#[allow(clippy::too_many_arguments)]
pub fn login<T: Transport>(
    t: &mut T,
    client: &Principal,
    key: &DesKey,
    service: &Principal,
    clock: &ProtoClock,
    tally: &mut Tally,
    tr: &mut Tracer,
    trace: u64,
) -> Result<Login, String> {
    let root = tr.open("login", trace, SpanId::NONE);
    let start = Instant::now();
    let req = as_request(client, clock, tr, trace, root);
    let reply = t.exchange(&req.bytes, Exchange::As, tr, trace, root)?;
    let tgt = as_read(&reply, key, req.now, tr, trace, root);
    tally.count(Exchange::As, &tgt);
    let mut tgt = TgtSession::new(tgt.map_err(|e| format!("AS for {client}: {e:?}"))?);
    let (svc, tgs_bytes, tgs_us) =
        tgs(t, &mut tgt, client, service, clock, tally, tr, trace, root)?;
    let login_us = start.elapsed().as_secs_f64() * 1e6;
    tr.close(root);
    Ok(Login {
        tgt,
        svc,
        tgs_bytes,
        login_us,
        tgs_us,
    })
}

/// One TGS exchange under `session`: the ticket, the request bytes and
/// the exchange time in microseconds.
#[allow(clippy::too_many_arguments)]
pub fn tgs<T: Transport>(
    t: &mut T,
    session: &mut TgtSession,
    client: &Principal,
    service: &Principal,
    clock: &ProtoClock,
    tally: &mut Tally,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> Result<(Credential, Vec<u8>, f64), String> {
    let start = Instant::now();
    let req = tgs_request(session, client, service, clock, tr, trace, parent);
    let reply = t.exchange(&req.bytes, Exchange::Tgs, tr, trace, parent)?;
    let svc = tgs_read(&reply, session, req.ts, tr, trace, parent);
    tally.count(Exchange::Tgs, &svc);
    let svc = svc.map_err(|e| format!("TGS {client} -> {service}: {e:?}"))?;
    Ok((svc, req.bytes, start.elapsed().as_secs_f64() * 1e6))
}

/// Resend a byte-identical, already answered TGS request: the KDC must
/// refuse it with `RD_AP_REPEAT`.
pub fn replay_probe<T: Transport>(
    t: &mut T,
    tgs_bytes: &[u8],
    tally: &mut Tally,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) {
    let reply = match t.exchange(tgs_bytes, Exchange::Tgs, tr, 0, SpanId::NONE) {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("replay probe: {e}"));
            return;
        }
    };
    match Message::decode(&reply) {
        Ok(Message::Err(e)) if e.code == ErrorCode::RdApRepeat => tally.errors += 1,
        Ok(Message::Err(e)) => {
            tally.errors += 1;
            problems.push(format!(
                "replayed TGS_REQ drew {:?}, not RD_AP_REPEAT",
                e.code
            ));
        }
        _ => {
            tally.tgs_ok += 1;
            problems.push("replayed TGS_REQ was answered with a ticket".into());
        }
    }
}

/// Check one ticket against the keys the benchmark holds: it opens under
/// the service key, names the client and 127.0.0.1, carries the reply's
/// session key, and its life is within what was asked and allowed.
pub fn check_ticket(i: &Issued) -> Result<(), String> {
    let t = i
        .cred
        .ticket
        .open_with(&Scheduled::new(&i.key))
        .map_err(|e| {
            format!(
                "ticket for {} does not open under the held key: {e:?}",
                i.cred.service
            )
        })?;
    let svc = &i.cred.service;
    if t.sname != svc.name || t.sinstance != svc.instance {
        return Err(format!(
            "ticket names service {}.{}, reply says {svc}",
            t.sname, t.sinstance
        ));
    }
    if t.cname != i.client.name || t.cinstance != i.client.instance || t.crealm != i.client.realm {
        return Err(format!(
            "ticket names {}.{}@{}, not {}",
            t.cname, t.cinstance, t.crealm, i.client
        ));
    }
    if t.addr != CLIENT_ADDR {
        return Err(format!("ticket names address {:?}", t.addr));
    }
    if t.session_key.as_bytes() != i.cred.session_key.as_bytes() {
        return Err(format!(
            "ticket for {svc} carries another session key than its reply"
        ));
    }
    if t.life != i.cred.life || t.life > i.requested_life || t.life > i.max_life {
        return Err(format!(
            "ticket life {} (reply {}) exceeds requested {} or max_life {}",
            t.life, i.cred.life, i.requested_life, i.max_life
        ));
    }
    Ok(())
}

/// What a TGT check needs: the AS reply and the krbtgt key.
pub fn issued_tgt(cred: &Credential, client: &Principal, keys: &Keyring) -> Issued {
    Issued {
        cred: cred.clone(),
        client: client.clone(),
        requested_life: DEFAULT_TGT_LIFE,
        max_life: USER_MAX_LIFE,
        key: keys.tgs,
    }
}

/// What a service-ticket check needs.
pub fn issued_service(
    cred: &Credential,
    client: &Principal,
    service: usize,
    keys: &Keyring,
) -> Issued {
    Issued {
        cred: cred.clone(),
        client: client.clone(),
        requested_life: DEFAULT_SERVICE_LIFE,
        max_life: SERVICE_MAX_LIFE,
        key: keys.services[service],
    }
}

/// Whether login `i` is in the seeded verification sample (one in
/// `every`, at seeded positions).
pub fn sampled(seed: u64, i: u64, every: u64) -> bool {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).is_multiple_of(every)
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((q * (s.len() - 1) as f64).round() as usize).min(s.len() - 1);
    s[idx]
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Which chunk the run reports. The host this benchmark was tuned on
/// shares its cores: other tenants slow it in stretches of a fraction of
/// a second to several seconds, and the slowed share of a run differs
/// from run to run. Interference only ever adds time, so the run reports
/// the chunk at the calm end: the 10th percentile of per-chunk latency
/// medians and the 90th percentile of per-chunk rates. A change to the
/// program moves every chunk, calm ones included.
const CALM: f64 = 0.1;

/// A run's p50: the median of each chunk of `chunk` consecutive samples,
/// then the calm end of those medians (see [`CALM`]); the median of
/// all samples when there is not one whole chunk.
pub fn chunked_p50(v: &[f64], chunk: usize) -> f64 {
    let meds: Vec<f64> = v.chunks_exact(chunk.max(1)).map(median).collect();
    if meds.is_empty() {
        median(v)
    } else {
        quantile(&meds, CALM)
    }
}

/// Throughput measured per chunk of `per` events; the run reports the
/// calm end of the chunk rates (see [`CALM`]).
pub struct ChunkRate {
    per: u64,
    count: u64,
    total: u64,
    since: Instant,
    busy: f64,
    rates: Vec<f64>,
}

impl ChunkRate {
    /// Rates over chunks of `per` events; call [`ChunkRate::restart`] when
    /// timing starts.
    pub fn new(per: u64) -> Self {
        ChunkRate {
            per,
            count: 0,
            total: 0,
            since: Instant::now(),
            busy: 0.0,
            rates: Vec::new(),
        }
    }

    /// Start (or resume) timing now, dropping any partial chunk.
    pub fn restart(&mut self) {
        self.count = 0;
        self.since = Instant::now();
    }

    /// `n` more events happened.
    pub fn add(&mut self, n: u64) {
        self.count += n;
        self.total += n;
        if self.count >= self.per {
            let secs = self.since.elapsed().as_secs_f64();
            self.busy += secs;
            self.rates.push(self.count as f64 / secs);
            self.restart();
        }
    }

    /// The reported rate: the calm end of the chunk rates, or the
    /// plain rate when not one chunk completed.
    pub fn rate(&self) -> f64 {
        if self.rates.is_empty() {
            return self.total as f64 / (self.busy + self.since.elapsed().as_secs_f64());
        }
        quantile(&self.rates, 1.0 - CALM)
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of the schedule-cache hit ratio read from a KDC's registry.
pub fn sched_hit_ratio<S: Store>(kdc: &Kdc<S>) -> f64 {
    let reg = kdc.telemetry();
    let hits = reg.counter_value("kdc_sched_cache_hits_total") as f64;
    let misses = reg.counter_value("kdc_sched_cache_misses_total") as f64;
    hits / (hits + misses)
}

/// Time `PrincipalDb::get` on the serving snapshot over the run's own
/// draws (spans `kdb.get`); traced runs only.
pub fn time_gets<S: Store>(
    kdc: &Kdc<S>,
    names: impl Iterator<Item = (String, String)>,
    tr: &mut Tracer,
) {
    if !tr.on() {
        return;
    }
    let snap = kdc.snapshot();
    for (name, inst) in names {
        let found = tr.time("kdb.get", 0, SpanId::NONE, || snap.db().get(&name, &inst));
        std::hint::black_box(found.ok().flatten());
    }
}

/// The KDC's own counts at run end and its journal's.
pub fn kdc_counts<S: Store>(report: &mut Report, kdc: &Kdc<S>, journal: &Journal) {
    let stats = kdc.stats();
    report.metric("kdc.as_ok", stats.as_ok as f64, "count");
    report.metric("kdc.tgs_ok", stats.tgs_ok as f64, "count");
    report.metric("kdc.errors", stats.errors as f64, "count");
    report.metric(
        "telemetry.journal_events",
        journal.events_recorded() as f64,
        "count",
    );
    report.metric(
        "telemetry.journal_dropped",
        journal.events_dropped() as f64,
        "count",
    );
}

/// One run's result, printed as the last line of standard output.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (AS, TGS, kpasswd and propagation steps).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Every verifier or property check that did not hold.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
