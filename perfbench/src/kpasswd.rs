//! `kpasswd-prop-100k`: the only workload that writes. A master on the
//! file-backed ndbm store (`HashStore`, as the paper's master keeps its
//! database) holds 10^5 users plus a churn set whose keys come from
//! passwords; one slave is bootstrapped from a KFULSEQ1 dump through
//! `IncrReplica` and serves from its own KDC. Each round is one kpasswd on
//! the master, its propagation to the slave as a KINCSEG1 segment, checks
//! that the slave serves the new key, and a fixed batch of Zipf logins
//! against the slave.

use crate::common::*;
use crate::trace::{SpanId, Tracer};
use crate::zipf::Zipf;
use kerberos::{
    build_as_req, read_as_reply_with_key, Credential, ErrorCode, Principal, DEFAULT_TGT_LIFE,
};
use krb_crypto::{string_to_key, DesKey, Scheduled};
use krb_kadm::{
    build_admin_request, build_kdbm_ticket_request, kpasswd_op, read_admin_reply,
    read_kdbm_ticket_reply, Acl, KdbmServer,
};
use krb_kdb::{HashStore, MemStore, PrincipalDb};
use krb_kdc::{Kdc, KdcRole};
use krb_kprop::{
    build_full_seq, build_incr_segment, IncrReplica, UpdateLog, UpdateOp, DEFAULT_LOG_CAP,
};
use krb_telemetry::Journal;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How big one run is.
#[derive(Clone, Debug)]
pub struct KpasswdSize {
    /// Users with random keys.
    pub users: usize,
    /// Users whose keys come from passwords; kpasswd rounds walk them.
    pub churn: usize,
    /// Services in the realm.
    pub services: usize,
    /// kpasswd rounds per run.
    pub rounds: usize,
    /// Logins against the slave after each round.
    pub batch: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// One batch login in this many gets the deep ticket checks.
    pub sample_every: u64,
}

impl KpasswdSize {
    /// The benchmark's size for a run of nominal length `seconds`.
    pub fn for_seconds(seconds: u64) -> Self {
        KpasswdSize {
            users: 100_000,
            churn: 64,
            services: 1_000,
            rounds: 2 * seconds as usize,
            batch: 200,
            setups: 3,
            sample_every: 64,
        }
    }
}

/// Name of churn user `c`.
fn churn_name(c: usize) -> String {
    format!("c{c}")
}

/// The password churn user `c` has after `generation` changes.
fn password(seed: u64, c: usize, generation: u32) -> String {
    format!("pw-{seed:x}-{c}-{generation}")
}

struct Deployment {
    dir: PathBuf,
    keys: Keyring,
    master: Arc<Kdc<HashStore>>,
    kdbm: KdbmServer<HashStore>,
    master_sched: Scheduled,
    log: UpdateLog,
    replica: IncrReplica,
    slave: Arc<Kdc<MemStore>>,
    slave_journal: Arc<Journal>,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn deploy(size: &KpasswdSize, seed: u64, clock: &ProtoClock, tr: &mut Tracer) -> Deployment {
    let (keys, _) = Keyring::generate(size.users, size.services, seed);
    // The store lives in the checkout, under the benchmark's output directory.
    static DEPLOYMENTS: AtomicUsize = AtomicUsize::new(0);
    let n = DEPLOYMENTS.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(".bench_out").join(format!("kdb-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the master's store directory");
    let store = HashStore::open(dir.join("principal")).expect("open the master's ndbm store");
    let mut db = PrincipalDb::create(store, keys.master, T0).expect("create the master database");
    db.add_principal(
        "krbtgt",
        REALM,
        &keys.tgs,
        EXPIRATION,
        USER_MAX_LIFE,
        T0,
        "kdb_init.",
    )
    .expect("register krbtgt");
    keys.bulk_register(&mut db, tr);
    let churn: Vec<(String, String, DesKey)> = (0..size.churn)
        .map(|c| {
            (
                churn_name(c),
                String::new(),
                string_to_key(&password(seed, c, 0)),
            )
        })
        .collect();
    db.bulk_register(&churn, EXPIRATION, USER_MAX_LIFE, T0, "perfbench.")
        .expect("bulk churn users");
    // The master's journal stays attached to it; the report reads the slave's.
    let (master, _) = serve(db, clock, KdcRole::Master, seed, tr);
    KdbmServer::register_service(&master, &keys.kdbm, clock.tick())
        .expect("register changepw.kerberos");
    let kdbm = KdbmServer::new(Arc::clone(&master), Acl::new(), clock.kdc_clock())
        .expect("KDBM on the master");

    let master_sched = Scheduled::new(&keys.master);
    let log = UpdateLog::new(DEFAULT_LOG_CAP);
    let dump = master.dump_text().expect("dump the master");
    let packet = build_full_seq(&master_sched, log.head(), dump.as_bytes());
    let mut replica = IncrReplica::new(keys.master);
    tr.time("kprop.bootstrap", 0, SpanId::NONE, || {
        replica.apply(&packet)
    })
    .expect("bootstrap the slave");
    let db = tr
        .time("kprop.snapshot_db", 0, SpanId::NONE, || {
            replica.snapshot_db()
        })
        .expect("bootstrapped mirror");
    let (slave, slave_journal) = serve(db, clock, KdcRole::Slave, seed ^ 1, tr);
    Deployment {
        dir,
        keys,
        master,
        kdbm,
        master_sched,
        log,
        replica,
        slave,
        slave_journal,
    }
}

/// Run the workload.
pub fn run(size: &KpasswdSize, seed: u64, tr: &mut Tracer) -> Report {
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
    let mut dep = dep.expect("at least one set-up");

    // The inputs: who changes a password each round, and the batch logins.
    // Zipf with s = 0 is uniform; only its seeded permutation is used.
    let churn_order = Zipf::new(size.churn, 0.0, seed ^ 0xc4);
    let mut users = Zipf::new(size.users, 1.0, seed ^ 0x0051);
    let mut services = Zipf::new(size.services, 1.0, seed ^ 0x0052);
    let draws: Vec<(usize, usize)> = (0..size.rounds * size.batch)
        .map(|_| (users.sample(), services.sample()))
        .collect();

    let mut generation = vec![0u32; size.churn];
    let mut master_tally = Tally::default();
    let mut slave_tally = Tally::default();
    let mut slave = InProc(Arc::clone(&dep.slave));
    let mut checks = Vec::new();
    let (mut kpasswd_ms, mut prop_ms, mut login_us, mut tgs_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut probe = None;
    // One throughput chunk per round: its write and propagation count.
    let mut tickets = ChunkRate::new(2 * size.batch as u64);
    tickets.restart();
    let mut acked = dep.log.head();
    for r in 0..size.rounds {
        let trace = r as u64 + 1;
        let root = tr.open("round", trace, SpanId::NONE);
        let c = churn_order.item_at_rank(r % size.churn);
        let client = user_principal_named(churn_name(c));
        let old_pw = password(seed, c, generation[c]);
        let new_pw = password(seed, c, generation[c] + 1);
        let kvno_before = dep
            .slave
            .snapshot()
            .db()
            .get(&client.name, "")
            .ok()
            .flatten()
            .map(|e| e.key_version);

        // 1. kpasswd: AS exchange for changepw.kerberos with the old
        //    password, then the KDBM.
        report.attempted += 1;
        let t0 = Instant::now();
        let span = tr.open("kpasswd", trace, root);
        let now = clock.tick();
        let req = build_kdbm_ticket_request(&client, now);
        let reply = tr.time(Exchange::As.handle_span(), trace, span, || {
            dep.master.handle(&req, CLIENT_ADDR)
        });
        let cred = read_kdbm_ticket_reply(&reply, &old_pw, now);
        master_tally.count(Exchange::As, &cred);
        let outcome = cred.and_then(|cred| {
            let admin = build_admin_request(&cred, &client, CLIENT_ADDR, now, &kpasswd_op(&new_pw));
            let kdbm = &mut dep.kdbm;
            let reply = tr.time("kadm.handle", trace, span, || {
                kdbm.handle(&admin, CLIENT_ADDR)
            });
            read_admin_reply(&reply)
        });
        tr.close(span);
        kpasswd_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = outcome {
            report.failed += 1;
            report
                .problems
                .push(format!("round {r}: kpasswd for {client}: {e:?}"));
            tr.close(root);
            continue;
        }
        generation[c] += 1;

        // 2. Propagation: journal the changed record, ship it as a
        //    segment, apply it and install the mirror on the slave.
        report.attempted += 1;
        let t1 = Instant::now();
        let span = tr.open("prop", trace, root);
        let shipped = propagate(&mut dep, &client.name, acked, tr, trace, span);
        tr.close(span);
        prop_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        match shipped {
            Ok(seq) => acked = seq,
            Err(e) => {
                report.failed += 1;
                report.problems.push(format!("round {r}: propagation: {e}"));
            }
        }

        // 3. The slave serves the new key and no longer the old one.
        let new_key = string_to_key(&new_pw);
        check_changed(&dep, &client, kvno_before, &new_key, &mut report.problems);
        let fresh = slave_login(&dep, &client, &new_key, &clock);
        slave_tally.count(Exchange::As, &fresh);
        match fresh {
            Ok(tgt) => checks.push(issued_tgt(&tgt, &client, &dep.keys)),
            Err(e) => report.problems.push(format!(
                "round {r}: slave refused the new password of {client}: {e:?}"
            )),
        }
        let stale = slave_login(&dep, &client, &string_to_key(&old_pw), &clock);
        slave_tally.count(Exchange::As, &stale);
        if stale.as_ref().err() != Some(&ErrorCode::IntkBadPw) {
            report.problems.push(format!(
                "round {r}: old password of {client} drew {:?}, not INTK_BADPW",
                stale.err()
            ));
        }
        tr.close(root);

        // 4. A batch of Zipf logins against the slave.
        for (b, &(u, s)) in draws[r * size.batch..(r + 1) * size.batch]
            .iter()
            .enumerate()
        {
            let i = r * size.batch + b;
            report.attempted += 2;
            let client = user_principal(u);
            let trace = (size.rounds + i) as u64 + 1;
            match login(
                &mut slave,
                &client,
                &dep.keys.users[u],
                &service_principal(s),
                &clock,
                &mut slave_tally,
                tr,
                trace,
            ) {
                Ok(l) => {
                    tickets.add(2);
                    login_us.push(l.login_us);
                    tgs_us.push(l.tgs_us);
                    if sampled(seed, i as u64, size.sample_every) {
                        checks.push(issued_tgt(&l.tgt.cred, &client, &dep.keys));
                        checks.push(issued_service(&l.svc, &client, s, &dep.keys));
                    }
                    probe.get_or_insert(l.tgs_bytes);
                }
                Err(e) => {
                    report.failed += 2;
                    report.problems.push(format!("round {r} login {b}: {e}"));
                }
            }
        }
    }

    match &probe {
        Some(bytes) => replay_probe(
            &mut slave,
            bytes,
            &mut slave_tally,
            tr,
            &mut report.problems,
        ),
        None => report
            .problems
            .push("no TGS_REQ was answered, so none could be replayed".into()),
    }
    for c in &checks {
        if let Err(e) = check_ticket(c) {
            report.problems.push(e);
        }
    }
    master_tally.compare("master KDC", &dep.master, &mut report.problems);
    slave_tally.compare("slave KDC", &dep.slave, &mut report.problems);
    let master_dump = dep.master.dump_text().ok();
    if master_dump.is_none()
        || master_dump != dep.slave.dump_text().ok()
        || master_dump != dep.replica.dump_text()
    {
        report
            .problems
            .push("master and slave dumps differ at run end".into());
    }

    report.metric("setup_s", median(&setups), "s");
    report.metric("tickets_rps", tickets.rate(), "tickets/s");
    report.metric("login_p50_us", chunked_p50(&login_us, size.batch), "us");
    report.metric("tgs_p50_us", chunked_p50(&tgs_us, size.batch), "us");
    if tr.on() {
        report.metric("kpasswd_p50_ms", median(&kpasswd_ms), "ms");
        report.metric("prop_p50_ms", median(&prop_ms), "ms");
        let busy_us: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.trace > size.rounds as u64 && s.name.starts_with("kdc.handle"))
            .map(|s| s.end.saturating_sub(s.start) as f64 / 1e3)
            .sum();
        let batch_us: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.trace > size.rounds as u64 && s.name == "login")
            .map(|s| s.end.saturating_sub(s.start) as f64 / 1e3)
            .sum();
        report.metric("kdc.busy_frac", busy_us / batch_us, "ratio");
        time_gets(
            &dep.slave,
            draws
                .iter()
                .take(20_000)
                .map(|&(u, _)| (user_name(u), String::new())),
            tr,
        );
    }
    report.metric("kdc.sched_hit_ratio", sched_hit_ratio(&dep.slave), "ratio");
    kdc_counts(&mut report, &dep.slave, &dep.slave_journal);
    report
}

/// Ship `name`'s committed master record to the slave; the new acked
/// sequence number on success.
fn propagate(
    dep: &mut Deployment,
    name: &str,
    acked: u64,
    tr: &mut Tracer,
    trace: u64,
    parent: SpanId,
) -> Result<u64, String> {
    let entry = dep
        .master
        .snapshot()
        .db()
        .get(name, "")
        .map_err(|e| format!("read back {name}: {e}"))?
        .ok_or_else(|| format!("{name} vanished from the master"))?;
    let seq = dep.log.append(UpdateOp::Put(entry));
    let records = dep
        .log
        .since(acked)
        .ok_or("journal evicted the unacked range")?;
    let segment = tr
        .time("kprop.build_incr_segment", trace, parent, || {
            build_incr_segment(&dep.master_sched, acked, &records)
        })
        .map_err(|e| format!("segment: {e}"))?;
    let replica = &mut dep.replica;
    tr.time("kprop.apply", trace, parent, || replica.apply(&segment))
        .map_err(|e| format!("apply: {e}"))?;
    let db = tr
        .time("kprop.snapshot_db", trace, parent, || replica.snapshot_db())
        .ok_or("mirror not bootstrapped")?;
    let slave = &dep.slave;
    tr.time("kdc.install_db", trace, parent, || slave.install_db(db));
    Ok(seq)
}

/// An AS exchange for a TGT on the slave, read under `key` (a check, not
/// a timed login).
fn slave_login(
    dep: &Deployment,
    client: &Principal,
    key: &DesKey,
    clock: &ProtoClock,
) -> Result<Credential, ErrorCode> {
    let now = clock.tick();
    let req = build_as_req(client, &tgs_principal(), DEFAULT_TGT_LIFE, now);
    read_as_reply_with_key(&dep.slave.handle(&req, CLIENT_ADDR), key, now)
}

/// The slave's record of `client` has its key version bumped by one and a
/// key that decrypts under the master key to `new_key`.
fn check_changed(
    dep: &Deployment,
    client: &Principal,
    before: Option<u8>,
    new_key: &DesKey,
    problems: &mut Vec<String>,
) {
    let snap = dep.slave.snapshot();
    let Ok(Some(entry)) = snap.db().get(&client.name, "") else {
        problems.push(format!("{client} missing on the slave"));
        return;
    };
    if Some(entry.key_version) != before.map(|v| v.wrapping_add(1)) {
        problems.push(format!(
            "{client}: slave kvno {} after change, was {before:?}",
            entry.key_version
        ));
    }
    let mut block = entry.key_encrypted;
    Scheduled::new(&dep.keys.master).decrypt_block(&mut block);
    if block != *new_key.as_bytes() {
        problems.push(format!(
            "{client}: slave key does not decrypt to string_to_key(new password)"
        ));
    }
}
