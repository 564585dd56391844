//! Load generation: seeded request streams and the generator actor.
//!
//! The benchmark owns its load generators (the harness's closed-loop
//! client buckets latencies into a log2 histogram and stops on a
//! rejection). A generator attaches to one replica's engine through the
//! public `ClientRequest`/`ClientReply` messages, keeps every sample,
//! and runs either closed loop (next request when the previous one is
//! answered) or open loop (requests on a fixed schedule, each timed from
//! the instant it was *due*).
//!
//! Keys, the read/write choice and values come from a splitmix64 stream
//! seeded by `--seed`; the program sees only the generated requests.

use std::collections::BTreeMap;
use std::rc::Rc;

use todr_core::{
    ActionId, ClientId, ClientReply, ClientRequest, QuerySemantics, ReadConsistency, RequestId,
    UpdateReplyPolicy,
};
use todr_db::{Op, Query, QueryResult, Value};
use todr_sim::{Actor, ActorId, Ctx, Payload, SimDuration, SimTime};

/// Table every generated request targets.
pub const TABLE: &str = "bench";
/// Value payload size: with key and framing, a 200-byte action (§7:
/// "each action is contained in 200 bytes").
pub const VALUE_BYTES: usize = 160;
/// Modelled wire size of an update request.
pub const UPDATE_BYTES: u32 = 200;
/// Modelled wire size of a read request.
pub const READ_BYTES: u32 = 64;
/// Keys per generator in the private-key mix.
pub const PRIVATE_KEYS: u64 = 64;
/// The engine's rejection reason for a crashed or joining replica; the
/// only rejection a client retries.
const UNAVAILABLE: &str = "server unavailable";
/// How long a generator waits before re-sending refused requests.
const RETRY_EVERY: SimDuration = SimDuration::from_millis(10);
/// A closed-loop generator sends its next request within this long of
/// the previous reply, the exact turnaround drawn from the seed. A real
/// client is never infinitely fast; and with a zero turnaround the
/// CPU-saturated workloads lock into cycles made only of the engine's
/// fixed CPU quanta, so every seed reads the same latency to the
/// nanosecond and the seed stops being an input.
pub const TURNAROUND_BELOW: SimDuration = SimDuration::from_micros(20);

/// SplitMix64 (public-domain algorithm): the benchmark's only source of
/// randomness, so inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream derived from this seed and a tag.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        SplitMix(s.next_u64())
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What a workload's generators draw.
#[derive(Debug, Clone, PartialEq)]
pub enum Mix {
    /// 200-byte puts, acknowledged on green, to 64 keys private to each
    /// generator (no cross-generator conflicts) — the paper's workload.
    Puts,
    /// YCSB workload B: `read_permille`/1000 linearizable reads, the rest
    /// fast-path puts, keys Zipfian-skewed over a space shared by every
    /// generator.
    Ycsb {
        /// Distinct keys.
        keys: u32,
        /// Zipfian skew (0.99 is the YCSB default).
        theta: f64,
        /// Reads per thousand requests.
        read_permille: u32,
    },
}

/// One generated request, before it is addressed to an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOp {
    /// A read (query only) rather than a put.
    pub read: bool,
    /// Row key.
    pub key: String,
    /// Tag identifying `key`, repeated in the first bytes of every value
    /// written to it; a read that returns another row's value is caught.
    pub key_tag: u32,
    /// Value to put (empty for reads).
    pub value: Vec<u8>,
}

impl GenOp {
    /// The database operation of a put.
    pub fn update(&self) -> Op {
        Op::put(TABLE, self.key.clone(), Value::Bytes(self.value.clone()))
    }

    /// The query of a read.
    pub fn query(&self) -> Query {
        Query::get(TABLE, self.key.clone())
    }
}

/// The deterministic request stream of one generator.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SplitMix,
    generator: u32,
    mix: Mix,
    /// Cumulative Zipfian distribution over key ranks (empty for
    /// [`Mix::Puts`]).
    cdf: Rc<[f64]>,
}

impl OpStream {
    /// The stream of generator number `generator` under `seed`.
    pub fn new(seed: u64, generator: u32, mix: &Mix) -> Self {
        let cdf: Rc<[f64]> = match mix {
            Mix::Puts => Rc::new([]),
            Mix::Ycsb { keys, theta, .. } => {
                let mut w: Vec<f64> = (1..=(*keys).max(1))
                    .map(|r| 1.0 / f64::from(r).powf(*theta))
                    .collect();
                let total: f64 = w.iter().sum();
                let mut acc = 0.0;
                for x in &mut w {
                    acc += *x / total;
                    *x = acc;
                }
                w.into()
            }
        };
        OpStream {
            rng: SplitMix::derive(seed, u64::from(generator) + 1),
            generator,
            mix: mix.clone(),
            cdf,
        }
    }

    fn value(&mut self, key_tag: u32) -> Vec<u8> {
        let mut v = Vec::with_capacity(VALUE_BYTES);
        v.extend_from_slice(&key_tag.to_le_bytes());
        v.extend_from_slice(&self.generator.to_le_bytes());
        while v.len() < VALUE_BYTES {
            v.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        v.truncate(VALUE_BYTES);
        v
    }
}

impl Iterator for OpStream {
    type Item = GenOp;

    fn next(&mut self) -> Option<GenOp> {
        Some(match self.mix {
            Mix::Puts => {
                let k = (self.rng.next_u64() % PRIVATE_KEYS) as u32;
                let key_tag = self.generator * PRIVATE_KEYS as u32 + k;
                GenOp {
                    read: false,
                    key: format!("c{}-{k}", self.generator),
                    key_tag,
                    value: self.value(key_tag),
                }
            }
            Mix::Ycsb { read_permille, .. } => {
                let read = self.rng.next_u64() % 1000 < u64::from(read_permille);
                let u = self.rng.next_f64();
                let rank = self.cdf.partition_point(|&c| c < u) as u32;
                GenOp {
                    read,
                    key: format!("z{rank}"),
                    key_tag: rank,
                    value: if read { Vec::new() } else { self.value(rank) },
                }
            }
        })
    }
}

/// How a generator paces its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// One request outstanding; the next is sent when it is answered.
    Closed,
    /// `count` requests, the k-th due at `first_due + k * interval`,
    /// sent whether or not earlier ones were answered.
    Open {
        /// Due instant of request 0.
        first_due: SimTime,
        /// Spacing of due instants.
        interval: SimDuration,
        /// Requests in the schedule.
        count: u64,
    },
}

/// One completed operation: virtual nanoseconds since the world began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the request was sent (closed loop) or due (open loop).
    pub start_ns: u64,
    /// When the reply arrived at the generator.
    pub end_ns: u64,
}

impl Sample {
    /// Request-to-reply latency.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything a generator recorded.
#[derive(Debug, Clone, Default)]
pub struct GenLog {
    /// Committed updates that count toward the measurement.
    pub commits: Vec<Sample>,
    /// With tracing on, the action id behind each entry of `commits`
    /// (same index), for joining to the program's event log.
    pub commit_actions: Vec<ActionId>,
    /// Answered reads that count toward the measurement.
    pub reads: Vec<Sample>,
    /// Requests sent or due inside the window.
    pub attempted: u64,
    /// Of those, answered.
    pub answered: u64,
    /// Of those, refused for good (any reason but an unavailable
    /// server, which is retried).
    pub rejected: u64,
    /// Refusals by a crashed or recovering replica, each retried.
    pub unavailable_retries: u64,
    /// Requests in flight when their replica crashed, each re-sent.
    pub resent_after_crash: u64,
    /// Reads whose value carried another row's tag.
    pub wrong_reads: u64,
    /// Largest (first send - due) of the open-loop schedule.
    pub max_lateness_ns: u64,
    /// Highest action index among the acknowledged updates (a generator
    /// talks to one replica, so they share a creator).
    pub max_acked_index: Option<u64>,
}

struct Pending {
    op: GenOp,
    start: SimTime,
    /// Counts toward `attempted`.
    attempted: bool,
    /// Was refused as unavailable or lost in a crash at least once.
    hit_crash: bool,
}

/// The open-loop due tick, and the closed loop's start signal.
pub struct Tick;
/// Tells a generator that the replica it talks to has crashed.
pub struct ServerCrashed;
struct RetryTick;

/// A load generator attached to one replica's engine.
pub struct Generator {
    client: ClientId,
    engine: ActorId,
    pace: Pace,
    reply_policy: UpdateReplyPolicy,
    /// Measured window `[from, until)`.
    window: (SimTime, SimTime),
    trace: bool,
    stream: OpStream,
    /// Draws the closed loop's turnaround times; separate from `stream`
    /// so the request sequence does not depend on pacing.
    pacing: SplitMix,
    next_attempt: u64,
    ticks: u64,
    running: bool,
    outstanding: BTreeMap<u64, Pending>,
    retry: Vec<Pending>,
    retry_armed: bool,
    log: GenLog,
}

impl Generator {
    /// A generator for `client`, sending to `engine`. Start it with a
    /// [`Tick`]: at once for a closed loop, at `first_due` for an open
    /// one.
    pub fn new(
        client: ClientId,
        engine: ActorId,
        pace: Pace,
        stream: OpStream,
        window: (SimTime, SimTime),
        trace: bool,
    ) -> Self {
        let reply_policy = match stream.mix {
            Mix::Puts => UpdateReplyPolicy::OnGreen,
            Mix::Ycsb { .. } => UpdateReplyPolicy::Fast,
        };
        Generator {
            client,
            engine,
            pace,
            reply_policy,
            window,
            trace,
            pacing: SplitMix::derive(stream.rng.0, 0x7061_6365),
            stream,
            next_attempt: 0,
            ticks: 0,
            running: true,
            outstanding: BTreeMap::new(),
            retry: Vec::new(),
            retry_armed: false,
            log: GenLog::default(),
        }
    }

    /// What was recorded so far.
    pub fn log(&self) -> &GenLog {
        &self.log
    }

    /// Stops issuing new requests (those in flight still complete).
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Requests sent and not yet answered or refused for good.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len() + self.retry.len()
    }

    /// Splits the unfinished requests that count as attempted into
    /// (lost to a crash, otherwise unanswered).
    pub fn unfinished(&self) -> (u64, u64) {
        let mut crashed = 0;
        let mut unanswered = 0;
        for p in self.outstanding.values().chain(self.retry.iter()) {
            if p.attempted {
                if p.hit_crash {
                    crashed += 1;
                } else {
                    unanswered += 1;
                }
            }
        }
        (crashed, unanswered)
    }

    /// The replica lost its volatile state: requests in flight will
    /// never be answered, so they are re-sent — what a client does when
    /// its connection resets.
    fn on_server_crashed(&mut self, ctx: &mut Ctx<'_>) {
        let lost = std::mem::take(&mut self.outstanding);
        self.log.resent_after_crash += lost.len() as u64;
        for (_, mut p) in lost {
            p.hit_crash = true;
            self.retry.push(p);
        }
        self.arm_retry(ctx);
    }

    fn arm_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.retry.is_empty() && !self.retry_armed {
            self.retry_armed = true;
            ctx.send_self_after(RETRY_EVERY, RetryTick);
        }
    }

    fn in_window(&self, t: SimTime) -> bool {
        self.window.0 <= t && t < self.window.1
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, p: Pending) {
        self.next_attempt += 1;
        let request = RequestId(self.next_attempt);
        let req = if p.op.read {
            ClientRequest {
                request,
                client: self.client,
                reply_to: ctx.self_id(),
                query: Some(p.op.query()),
                update: Op::Noop,
                query_semantics: QuerySemantics::Strict,
                reply_policy: UpdateReplyPolicy::OnGreen,
                read_consistency: Some(ReadConsistency::Linearizable),
                size_bytes: READ_BYTES,
            }
        } else {
            ClientRequest {
                request,
                client: self.client,
                reply_to: ctx.self_id(),
                query: None,
                update: p.op.update(),
                query_semantics: QuerySemantics::Strict,
                reply_policy: self.reply_policy,
                read_consistency: None,
                size_bytes: UPDATE_BYTES,
            }
        };
        self.outstanding.insert(self.next_attempt, p);
        ctx.send_now(self.engine, req);
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, start: SimTime) {
        let op = self.stream.next().expect("op streams are endless");
        let attempted = self.in_window(start);
        if attempted {
            self.log.attempted += 1;
        }
        self.send(
            ctx,
            Pending {
                op,
                start,
                attempted,
                hit_crash: false,
            },
        );
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_>) {
        match self.pace {
            Pace::Closed => {
                if self.running && self.outstanding.is_empty() && self.retry.is_empty() {
                    self.issue(ctx, ctx.now());
                }
            }
            Pace::Open {
                first_due,
                interval,
                count,
            } => {
                if !self.running || self.ticks >= count {
                    return;
                }
                let due = first_due + interval * self.ticks;
                let late = ctx.now().saturating_since(due).as_nanos();
                self.log.max_lateness_ns = self.log.max_lateness_ns.max(late);
                self.ticks += 1;
                self.issue(ctx, due);
                if self.ticks < count {
                    let me = ctx.self_id();
                    ctx.send_at(first_due + interval * self.ticks, me, Tick);
                }
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, p: &Pending, action: Option<ActionId>) {
        let now = ctx.now();
        if p.attempted {
            self.log.answered += 1;
        }
        let counted = match self.pace {
            Pace::Closed => self.in_window(now),
            Pace::Open { .. } => p.attempted,
        };
        if !counted {
            return;
        }
        let sample = Sample {
            start_ns: p.start.as_nanos(),
            end_ns: now.as_nanos(),
        };
        if p.op.read {
            self.log.reads.push(sample);
        } else {
            self.log.commits.push(sample);
            if self.trace {
                self.log
                    .commit_actions
                    .push(action.expect("a committed update carries its action id"));
            }
        }
    }

    fn check_read(&mut self, p: &Pending, result: &QueryResult) {
        let ok = match result {
            QueryResult::Value(None) => true,
            QueryResult::Value(Some(Value::Bytes(b))) => {
                b.len() == VALUE_BYTES && b[..4] == p.op.key_tag.to_le_bytes()
            }
            _ => false,
        };
        if !ok {
            self.log.wrong_reads += 1;
        }
    }

    fn on_reply(&mut self, ctx: &mut Ctx<'_>, reply: ClientReply) {
        let request = match &reply {
            ClientReply::Committed { request, .. }
            | ClientReply::QueryAnswer { request, .. }
            | ClientReply::Rejected { request, .. } => request.0,
        };
        // A reply to an attempt that was since re-sent is stale.
        let Some(mut p) = self.outstanding.remove(&request) else {
            return;
        };
        match reply {
            ClientReply::Committed { action, result, .. } => {
                if let (true, Some(r)) = (p.op.read, &result) {
                    self.check_read(&p, r);
                }
                if !p.op.read {
                    self.log.max_acked_index = self.log.max_acked_index.max(Some(action.index));
                }
                self.finish(ctx, &p, Some(action));
            }
            ClientReply::QueryAnswer { result, .. } => {
                self.check_read(&p, &result);
                self.finish(ctx, &p, None);
            }
            ClientReply::Rejected { reason, .. } if reason == UNAVAILABLE => {
                self.log.unavailable_retries += 1;
                p.hit_crash = true;
                self.retry.push(p);
                self.arm_retry(ctx);
                return;
            }
            ClientReply::Rejected { .. } => {
                if p.attempted {
                    self.log.rejected += 1;
                }
            }
        }
        if self.pace == Pace::Closed {
            let turnaround = self.pacing.next_u64() % TURNAROUND_BELOW.as_nanos();
            ctx.send_self_after(SimDuration::from_nanos(turnaround), Tick);
        }
    }
}

impl Actor for Generator {
    fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
        let payload = match payload.try_downcast::<ClientReply>() {
            Ok(reply) => return self.on_reply(ctx, reply),
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<Tick>() {
            Ok(_) => return self.on_tick(ctx),
            Err(p) => p,
        };
        let payload = match payload.try_downcast::<ServerCrashed>() {
            Ok(_) => return self.on_server_crashed(ctx),
            Err(p) => p,
        };
        if payload.downcast::<RetryTick>().is_some() {
            self.retry_armed = false;
            for p in std::mem::take(&mut self.retry) {
                self.send(ctx, p);
            }
        } else {
            panic!("generator received an unknown payload type");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use todr_net::NodeId;
    use todr_sim::World;

    /// A stand-in engine: commits every request after `service`, except
    /// that requests arriving inside `stall` are held until it ends.
    struct StubEngine {
        service: SimDuration,
        stall: (SimTime, SimTime),
        seq: u64,
    }

    impl Actor for StubEngine {
        fn handle(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let req = payload.downcast::<ClientRequest>().expect("a request");
            self.seq += 1;
            let now = ctx.now();
            let begin = if self.stall.0 <= now && now < self.stall.1 {
                self.stall.1
            } else {
                now
            };
            ctx.send_at(
                begin + self.service,
                req.reply_to,
                ClientReply::Committed {
                    request: req.request,
                    action: ActionId {
                        server: NodeId::new(0),
                        index: self.seq,
                    },
                    result: None,
                    submitted_at: now,
                    green_seq: self.seq,
                },
            );
        }
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn open_loop_times_from_the_due_instant_across_a_stall() {
        let mut world = World::new(1);
        let engine = world.add_actor(
            "stub",
            StubEngine {
                service: SimDuration::from_millis(1),
                stall: (ms(100), ms(150)),
                seq: 0,
            },
        );
        let pace = Pace::Open {
            first_due: ms(50),
            interval: SimDuration::from_millis(10),
            count: 20,
        };
        let gen = world.add_actor(
            "gen",
            Generator::new(
                ClientId(1),
                engine,
                pace,
                OpStream::new(9, 0, &Mix::Puts),
                (ms(50), ms(250)),
                true,
            ),
        );
        world.schedule(ms(50), gen, Tick);
        world.run_until(ms(400));
        let log = world.with_actor(gen, |g: &mut Generator| g.log().clone());
        assert_eq!(log.max_lateness_ns, 0, "the schedule never slips");
        assert_eq!((log.attempted, log.answered), (20, 20));
        assert_eq!(log.commits.len(), 20);
        for (k, s) in log.commits.iter().enumerate() {
            let due = 50 + 10 * k as u64;
            assert_eq!(s.start_ns, due * 1_000_000, "sample {k} starts when due");
            // Held requests (due 100..150) all finish at 151 ms: the
            // one due first waited longest. A closed loop would have
            // sent one request into the stall and hidden the rest.
            let expect = if (100..150).contains(&due) {
                151 - due
            } else {
                1
            };
            assert_eq!(s.latency_ns(), expect * 1_000_000, "sample {k}");
        }
        assert_eq!(log.commit_actions.len(), 20);
    }

    #[test]
    fn closed_loop_keeps_one_request_in_flight() {
        let mut world = World::new(1);
        let engine = world.add_actor(
            "stub",
            StubEngine {
                service: SimDuration::from_millis(2),
                stall: (ms(0), ms(0)),
                seq: 0,
            },
        );
        let gen = world.add_actor(
            "gen",
            Generator::new(
                ClientId(1),
                engine,
                Pace::Closed,
                OpStream::new(9, 0, &Mix::Puts),
                (ms(10), ms(30)),
                false,
            ),
        );
        world.schedule_now(gen, Tick);
        world.run_until(ms(30));
        let (log, in_flight) =
            world.with_actor(gen, |g: &mut Generator| (g.log().clone(), g.in_flight()));
        // A reply every 2 ms plus a turnaround; those in [10, 30) count.
        assert!(
            (9..=10).contains(&log.commits.len()),
            "{}",
            log.commits.len()
        );
        assert!(log.commits.iter().all(|s| s.latency_ns() == 2_000_000));
        let turnarounds: Vec<u64> = log
            .commits
            .windows(2)
            .map(|w| w[1].start_ns - w[0].end_ns)
            .collect();
        assert!(turnarounds.iter().all(|&t| t < TURNAROUND_BELOW.as_nanos()));
        assert!(turnarounds.iter().any(|&t| t != turnarounds[0]));
        assert_eq!(in_flight, 1);
        assert!(log.commit_actions.is_empty(), "no stamps without tracing");
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_generators() {
        let mix = Mix::Ycsb {
            keys: 64,
            theta: 0.99,
            read_permille: 950,
        };
        let a: Vec<GenOp> = OpStream::new(42, 3, &mix).take(500).collect();
        let b: Vec<GenOp> = OpStream::new(42, 3, &mix).take(500).collect();
        let c: Vec<GenOp> = OpStream::new(42, 4, &mix).take(500).collect();
        let d: Vec<GenOp> = OpStream::new(43, 3, &mix).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let reads = a.iter().filter(|o| o.read).count();
        assert!((440..=500).contains(&reads), "about 95 % reads: {reads}");
        // Rank 0 is the hottest key under Zipfian skew.
        let hot = a.iter().filter(|o| o.key == "z0").count();
        assert!(hot > 50, "z0 drew {hot} of 500");
        let put = a.iter().find(|o| !o.read).expect("some puts");
        assert_eq!(put.value.len(), VALUE_BYTES);
        assert_eq!(put.value[..4], put.key_tag.to_le_bytes());
    }
}
