//! `ingest_wire`: wire-level sessions drive `IngestPlane::handle`
//! directly, as in E21's mega-fleet, from two client threads with one
//! request outstanding each (closed loop). Every session handshakes,
//! attests, then sends many sealed records through seeded shard crash
//! windows, re-attesting whenever a restarted shard fences its epoch and
//! backing off in virtual time while a shard is dark. A seeded share of
//! records is sent twice, so the plane's dedup absorbs redeliveries.
//! Commit- and journal-heavy; ML and capture are bypassed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use perisec_core::FILTER_TA_NAME;
use perisec_ingest::{IngestPlane, IngestPlaneConfig, ShardFaultSpec};
use perisec_relay::attest::{encode_attest_request, encode_ingest_record, SessionIngest};
use perisec_relay::{
    measurement_of, AvsEvent, IngestReply, SecureChannelClient, ATTEST_SEQ_BASE, MEASUREMENT_LEN,
    PSK_LEN,
};

use crate::stats::{median, ns_since, peak_rss_mib, percentile, summary, us_since};
use crate::{time_setup, Args, Outcome, Scale, RSS_ROUNDS};

/// Client threads, a fixed count like the fleet's workers; thread `t` drives sessions
/// `t, t + CLIENTS, ...`.
const CLIENTS: usize = 2;
const SHARDS: usize = 4;
/// Virtual time between a session's records, and the backoff bounds
/// while its shard is dark.
const SPACING_NS: u64 = 10_000;
const MAX_BACKOFF_NS: u64 = 4_000_000;
/// Share of records sent a second time after their ack, per mille.
const DUPLICATE_PERMILLE: u64 = 50;
const PSK: [u8; PSK_LEN] = [0x5a; PSK_LEN];
const WORDS: &[&str] = &[
    "lights",
    "on",
    "kitchen",
    "thermostat",
    "door",
    "locked",
    "music",
    "off",
];

fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (384, 128),
        Scale::Tiny => (8, 8),
    }
}

/// SplitMix64: the seeded source of payloads and duplicate choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One session's generated input: its encoded events and which records
/// are sent twice.
struct SessionPlan {
    events: Vec<Vec<u8>>,
    duplicate: Vec<bool>,
}

/// The generated inputs plus the plane configuration.
struct Setup {
    plans: Vec<SessionPlan>,
    records: usize,
    plane: IngestPlaneConfig,
    measurement: [u8; MEASUREMENT_LEN],
}

impl Setup {
    fn build(seed: u64, sessions: usize, records: usize) -> Setup {
        let mut state = seed;
        let plans = (0..sessions)
            .map(|session| {
                let mut events = Vec::with_capacity(records);
                let mut duplicate = Vec::with_capacity(records);
                for seq in 0..records {
                    let words = 1 + (splitmix(&mut state) % 6) as usize;
                    let text = (0..words)
                        .map(|_| WORDS[(splitmix(&mut state) % WORDS.len() as u64) as usize])
                        .collect::<Vec<_>>()
                        .join(" ");
                    let event = AvsEvent::TextMessage {
                        dialog_id: (session * records + seq) as u64,
                        text,
                    };
                    events.push(event.encode());
                    duplicate.push(splitmix(&mut state) % 1000 < DUPLICATE_PERMILLE);
                }
                SessionPlan { events, duplicate }
            })
            .collect();
        let measurement = measurement_of(FILTER_TA_NAME);
        // Three jittered crash windows per shard across each client's
        // ~250 ms of virtual time.
        let plane = IngestPlaneConfig::new(SHARDS, sessions)
            .accepting(vec![measurement])
            .with_faults(ShardFaultSpec {
                seed,
                crashes_per_shard: 3,
                first_crash_ns: 40_000_000,
                crash_period_ns: 80_000_000,
                downtime_ns: 2_000_000,
            });
        Setup {
            plans,
            records,
            plane,
            measurement,
        }
    }
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct ClientTimes {
    traced: bool,
    rtt_us: Vec<f64>,
    handshake_us: Vec<f64>,
    seal_ns: Vec<f64>,
    open_ns: Vec<f64>,
    hello_us: Vec<f64>,
    attest_us: Vec<f64>,
    record_us: Vec<f64>,
    record_sends: u64,
    dark_replies: u64,
    duplicates_sent: u64,
    errors: Vec<String>,
}

impl ClientTimes {
    fn absorb(&mut self, other: ClientTimes) {
        self.rtt_us.extend(other.rtt_us);
        self.handshake_us.extend(other.handshake_us);
        self.seal_ns.extend(other.seal_ns);
        self.open_ns.extend(other.open_ns);
        self.hello_us.extend(other.hello_us);
        self.attest_us.extend(other.attest_us);
        self.record_us.extend(other.record_us);
        self.record_sends += other.record_sends;
        self.dark_replies += other.dark_replies;
        self.duplicates_sent += other.duplicates_sent;
        self.errors.extend(other.errors);
    }
}

/// One wire client: a session's channel, its virtual clock, and the
/// timers of a traced run.
struct Client<'a> {
    plane: &'a IngestPlane,
    session: u64,
    channel: SecureChannelClient,
    now_ns: u64,
    counter: u64,
    epoch: u64,
    times: &'a mut ClientTimes,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hello,
    Attest,
    Record,
}

impl Client<'_> {
    /// One `handle` call, timed by request kind when tracing.
    fn send(&mut self, kind: Kind, wire: &[u8]) -> Vec<u8> {
        if kind == Kind::Record {
            self.times.record_sends += 1;
        }
        let t = self.times.traced.then(Instant::now);
        let reply = self.plane.handle(self.session, self.now_ns, wire);
        if let Some(t) = t {
            let us = us_since(t);
            match kind {
                Kind::Hello => self.times.hello_us.push(us),
                Kind::Attest => self.times.attest_us.push(us),
                Kind::Record => self.times.record_us.push(us),
            }
        }
        if reply.is_empty() {
            self.times.dark_replies += 1;
        }
        reply
    }

    fn seal(&mut self, seq: u64, plain: &[u8]) -> Result<Vec<u8>, String> {
        let t = self.times.traced.then(Instant::now);
        let wire = self
            .channel
            .seal_at(seq, plain)
            .map_err(|e| e.to_string())?;
        if let Some(t) = t {
            self.times.seal_ns.push(ns_since(t));
        }
        Ok(wire)
    }

    fn open(&mut self, reply: &[u8]) -> Result<IngestReply, String> {
        let t = self.times.traced.then(Instant::now);
        let (_, plain) = self
            .channel
            .open_explicit(reply)
            .map_err(|e| e.to_string())?;
        if let Some(t) = t {
            self.times.open_ns.push(ns_since(t));
        }
        IngestReply::decode(&plain).ok_or_else(|| "undecodable ingest reply".to_owned())
    }

    fn handshake(&mut self) -> Result<(), String> {
        let t = Instant::now();
        loop {
            let hello = self.channel.client_hello();
            let reply = self.send(Kind::Hello, &hello);
            if reply.is_empty() {
                self.now_ns += MAX_BACKOFF_NS;
                continue;
            }
            self.channel
                .process_server_hello(&reply)
                .map_err(|e| e.to_string())?;
            break;
        }
        if self.times.traced {
            self.times.handshake_us.push(us_since(t));
        }
        Ok(())
    }

    /// Attests under a fresh monotonic counter, retrying through dark
    /// windows with the same counter.
    fn attest(&mut self, measurement: &[u8; MEASUREMENT_LEN]) -> Result<(), String> {
        self.counter += 1;
        let request = encode_attest_request(measurement, self.counter);
        loop {
            let wire = self.seal(ATTEST_SEQ_BASE + self.counter, &request)?;
            let reply = self.send(Kind::Attest, &wire);
            if reply.is_empty() {
                self.now_ns += MAX_BACKOFF_NS;
                continue;
            }
            return match self.open(&reply)? {
                IngestReply::AttestGrant { epoch } => {
                    self.epoch = epoch;
                    Ok(())
                }
                other => Err(format!(
                    "session {} attest refused: {other:?}",
                    self.session
                )),
            };
        }
    }

    /// Sends record `seq` until it is acked: backs off while the shard
    /// is dark, re-attests when fenced. Returns the host round-trip time
    /// from first seal to decoded ack, retries included.
    fn record(
        &mut self,
        seq: u64,
        event: &[u8],
        measurement: &[u8; MEASUREMENT_LEN],
    ) -> Result<f64, String> {
        let started = Instant::now();
        let mut backoff = SPACING_NS;
        loop {
            let wire = self.seal(seq, &encode_ingest_record(self.epoch, event))?;
            let reply = self.send(Kind::Record, &wire);
            if reply.is_empty() {
                self.now_ns += backoff;
                backoff = (backoff * 2).min(MAX_BACKOFF_NS);
                continue;
            }
            match self.open(&reply)? {
                IngestReply::Ack(_) => return Ok(us_since(started)),
                IngestReply::NeedAttest | IngestReply::StaleEpoch { .. } => {
                    self.attest(measurement)?
                }
                IngestReply::Backpressure { .. } => self.now_ns += backoff,
                other => return Err(format!("session {} record {seq}: {other:?}", self.session)),
            }
        }
    }

    /// Re-sends an acked record verbatim: the plane must absorb it as a
    /// redelivery and re-ack it without committing twice.
    fn redeliver(&mut self, seq: u64, event: &[u8]) -> Result<(), String> {
        let wire = self.seal(seq, &encode_ingest_record(self.epoch, event))?;
        self.times.duplicates_sent += 1;
        let reply = self.send(Kind::Record, &wire);
        if reply.is_empty() {
            return Ok(());
        }
        match self.open(&reply)? {
            IngestReply::Ack(_) => Ok(()),
            other => Err(format!(
                "session {} redelivery of {seq}: {other:?}",
                self.session
            )),
        }
    }
}

/// Drives every session of client thread `thread` to completion.
fn drive(setup: &Setup, plane: &IngestPlane, thread: usize, traced: bool) -> ClientTimes {
    let mut times = ClientTimes {
        traced,
        ..ClientTimes::default()
    };
    let mut now_ns = 0u64;
    for session in (thread..setup.plans.len()).step_by(CLIENTS) {
        let plan = &setup.plans[session];
        let mut client = Client {
            plane,
            session: session as u64,
            channel: SecureChannelClient::new(PSK, session as u64 + 1),
            now_ns,
            counter: 0,
            epoch: 0,
            times: &mut times,
        };
        let result = (|| -> Result<(), String> {
            client.handshake()?;
            client.attest(&setup.measurement)?;
            for (seq, event) in plan.events.iter().enumerate() {
                let rtt = client.record(seq as u64, event, &setup.measurement)?;
                client.times.rtt_us.push(rtt);
                if plan.duplicate[seq] {
                    client.redeliver(seq as u64, event)?;
                }
                client.now_ns += SPACING_NS;
            }
            Ok(())
        })();
        now_ns = client.now_ns;
        if let Err(error) = result {
            times.errors.push(error);
        }
    }
    times
}

/// One round on a fresh plane: returns the merged client times, the
/// plane, and the round's host seconds.
fn round(setup: &Setup, traced: bool) -> (ClientTimes, Arc<IngestPlane>, f64) {
    let plane = IngestPlane::new(setup.plane.clone());
    let started = Instant::now();
    let mut merged = ClientTimes::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|thread| {
                let plane = &*plane;
                scope.spawn(move || drive(setup, plane, thread, traced))
            })
            .collect();
        for handle in handles {
            merged.absorb(handle.join().expect("wire client thread panicked"));
        }
    });
    (merged, plane, started.elapsed().as_secs_f64())
}

/// Records committed other than exactly once and in order: for each
/// session, every expected record missing, duplicated or out of place.
fn commit_failures(setup: &Setup, plane: &IngestPlane) -> u64 {
    let mut failed = 0u64;
    for session in 0..setup.plans.len() {
        let report = plane.session_report(session as u64);
        let base = (session * setup.records) as u64;
        let expected = base..base + setup.records as u64;
        let in_place = report
            .events
            .iter()
            .zip(expected.clone())
            .filter(|(event, id)| event.dialog_id == *id)
            .count();
        failed += (setup.records - in_place) as u64;
        failed += report.events.len().saturating_sub(setup.records) as u64;
    }
    failed
}

/// Runs the `ingest_wire` workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (sessions, records) = sizes(args.scale);
    let build = || {
        let built = Setup::build(args.seed, sessions, records);
        // Plane construction is part of set-up; each round then builds
        // its own fresh plane outside the timed region.
        drop(IngestPlane::new(built.plane.clone()));
        built
    };
    let (setup, first) = time_setup(build);
    let mut setup_s = vec![first];
    let expected = (sessions * records) as u64;
    out.lines.push(format!(
        "workload ingest_wire seed {} scale {:?}: {sessions} sessions x {records} records, {SHARDS} shards, {CLIENTS} client threads, trace {}",
        args.seed, args.scale, args.trace as u8
    ));

    // Each round is checked and summarised as it ends; only the last
    // traced round's plane and timings are kept. Throughput is committed
    // records over host seconds, summed across the measured rounds.
    let mut untraced = (0.0f64, 0.0f64);
    let mut traced_total = (0.0f64, 0.0f64);
    let mut untraced_rounds = 0usize;
    let mut rtt = Vec::new();
    let mut redelivery_ok = true;
    let mut last_traced = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Round 0 is the untimed warm-up: it fills caches and proves the
    // plane end to end before anything is measured.
    let mut index = 0usize;
    loop {
        let traced = args.trace && index % 2 == 1;
        let (times, plane, secs) = round(&setup, traced);
        let failed = commit_failures(&setup, &plane) + times.errors.len() as u64;
        out.attempted += expected;
        out.failed += failed.min(expected);
        for error in times.errors.iter().take(3) {
            out.lines.push(format!("error: {error}"));
        }
        redelivery_ok &= plane.counters().redelivered >= times.duplicates_sent;
        let committed = plane.total_committed() as f64;
        if index > 0 {
            if traced {
                traced_total.0 += committed;
                traced_total.1 += secs;
                last_traced = Some((times, plane));
            } else {
                untraced.0 += committed;
                untraced.1 += secs;
                untraced_rounds += 1;
                // One round's records are plenty for p99; keeping every
                // round's would grow the resident set with run length.
                rtt = times.rtt_us;
            }
        }
        setup_s.push(time_setup(build).1);
        index += 1;
        if index == 1 + RSS_ROUNDS {
            out.metrics.insert("peak_rss_mib", peak_rss_mib());
        }
        let traced_done = !args.trace || last_traced.is_some();
        if index > RSS_ROUNDS && Instant::now() >= deadline && traced_done {
            break;
        }
    }
    out.check(
        "every redelivered record absorbed without a second commit",
        redelivery_ok,
    );

    let setup_median = median(&setup_s);
    let records_per_s = untraced.0 / untraced.1.max(f64::MIN_POSITIVE);
    let sessions_per_s = records_per_s / records as f64;
    out.lines.push(format!(
        "setup_s {setup_median:.4} (set-ups: {})",
        summary(&setup_s)
    ));
    out.lines.push(format!(
        "{} untraced rounds: items_per_s {:.1} (records committed); derived: devices_per_s {:.1} (sessions); \
         record_rtt_p50_us {:.3}, record_rtt_p99_us {:.3} ({} records), ops_failed_ratio {:.6}",
        untraced_rounds,
        records_per_s,
        sessions_per_s,
        percentile(&rtt, 0.5),
        percentile(&rtt, 0.99),
        rtt.len(),
        out.failed as f64 / out.attempted.max(1) as f64,
    ));
    if !args.trace {
        out.metrics.insert("setup_s", setup_median);
        out.metrics.insert("items_per_s", records_per_s);
        return out;
    }

    let (times, plane) = last_traced.expect("a traced round ran");
    let counters = plane.counters();
    let committed = plane.total_committed() as f64;
    let per_shard: Vec<f64> = plane
        .committed_per_shard()
        .iter()
        .map(|&c| c as f64)
        .collect();
    let shard_mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
    let untraced_rate = records_per_s;
    let traced_rate = traced_total.0 / traced_total.1.max(f64::MIN_POSITIVE);
    let m = &mut out.metrics;
    m.insert(
        "relay.handshake_us.p50",
        percentile(&times.handshake_us, 0.5),
    );
    m.insert("relay.seal_ns.p50", percentile(&times.seal_ns, 0.5));
    m.insert("relay.open_ns.p50", percentile(&times.open_ns, 0.5));
    m.insert("relay.record_rtt_us.p50", percentile(&times.rtt_us, 0.5));
    m.insert("relay.record_rtt_us.p99", percentile(&times.rtt_us, 0.99));
    m.insert("ingest.hello_us.p50", percentile(&times.hello_us, 0.5));
    m.insert("ingest.attest_us.p50", percentile(&times.attest_us, 0.5));
    m.insert("ingest.record_us.p50", percentile(&times.record_us, 0.5));
    m.insert("ingest.record_us.p99", percentile(&times.record_us, 0.99));
    m.insert("ingest.committed", committed);
    m.insert("ingest.redelivered", counters.redelivered as f64);
    m.insert(
        "ingest.stale_epoch_rejects",
        counters.stale_epoch_rejects as f64,
    );
    m.insert("ingest.attest_grants", counters.attest_grants as f64);
    m.insert(
        "ingest.backpressure_rejects",
        counters.backpressure_rejects as f64,
    );
    m.insert("ingest.dark_replies", times.dark_replies as f64);
    m.insert(
        "ingest.useful_ratio",
        committed / (times.record_sends as f64).max(1.0),
    );
    m.insert(
        "ingest.shard_skew",
        per_shard.iter().copied().fold(0.0, f64::max) / shard_mean.max(f64::MIN_POSITIVE),
    );
    m.insert("trace.untraced_per_s", untraced_rate);
    m.insert("trace.traced_per_s", traced_rate);
    m.insert(
        "trace.overhead_pct",
        (untraced_rate / traced_rate.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
    );
    out.lines.push(format!(
        "ingest counters (last traced round): committed {committed}, redelivered {}, stale-epoch rejects {}, \
         attest grants {}, dark replies {}, record sends {}",
        counters.redelivered, counters.stale_epoch_rejects, counters.attest_grants, times.dark_replies, times.record_sends
    ));
    out.lines.push(format!(
        "tracing overhead: untraced {untraced_rate:.1} records/s vs traced {traced_rate:.1} records/s ({:+.2}%)",
        (untraced_rate / traced_rate.max(f64::MIN_POSITIVE) - 1.0) * 100.0
    ));
    out
}
