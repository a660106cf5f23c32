//! The three workloads, run against a real embedded cluster with
//! `ClusterConfig::default()` over TCP. The benchmark sets no tuning knob.
//!
//! One writer thread and one reader thread generate the load; the main
//! thread only samples `/proc` and a cluster gauge while they run.
//!
//! Every workload has a *tail* stream of 100 B events written open loop and
//! followed by the reader. `bulk_large` adds a *bulk* stream written closed
//! loop beside it (the tail events then probe latency under bulk ingest),
//! and `catchup_replay` a bulk backlog that the reader replays cold.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use pravega_client::{
    BytesSerializer, ClientError, EventStreamReader, EventStreamWriter, WriterConfig,
};
use pravega_common::future::Promise;
use pravega_common::id::ScopedStream;
use pravega_common::policy::{ScalingPolicy, StreamConfiguration};
use pravega_core::{ClusterConfig, PravegaCluster, TransportKind};

use crate::gen::{Header, PayloadPool, Phase, Rng, Zipf};
use crate::layers::{LayerWindow, Sampled};
use crate::stats::{
    self, grouped_percentile, median, ms, percentile, pooled_percentile, span_rate,
};
use crate::trace::Spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TailSmall,
    BulkLarge,
    CatchupReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TailSmall,
        Workload::BulkLarge,
        Workload::CatchupReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TailSmall => "tail_small",
            Workload::BulkLarge => "bulk_large",
            Workload::CatchupReplay => "catchup_replay",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Events per second on the tail stream.
    fn tail_rate(self) -> f64 {
        match self {
            Workload::TailSmall => 2000.0,
            Workload::BulkLarge | Workload::CatchupReplay => 200.0,
        }
    }

    /// Segments of the tail stream. `bulk_large` probes with one segment, so
    /// its tail events queue in one container beside the bulk appends and
    /// the reader polls one segment: the probe then measures that queue
    /// rather than the scheduling of four polling round trips on two
    /// saturated cores, which varies from run to run by more than the
    /// latency bounds.
    fn tail_segments(self) -> u32 {
        match self {
            Workload::BulkLarge => 1,
            Workload::TailSmall | Workload::CatchupReplay => SEGMENTS,
        }
    }

    /// Size of the bulk stream's events, if the workload has one.
    fn bulk_event_bytes(self) -> Option<usize> {
        match self {
            Workload::TailSmall => None,
            Workload::BulkLarge => Some(64 * 1024),
            Workload::CatchupReplay => Some(16 * 1024),
        }
    }

    /// Size of the events whose bytes dominate the run: the per-byte
    /// replays use it as their input shape.
    pub fn replay_event_bytes(self) -> usize {
        self.bulk_event_bytes().unwrap_or(TAIL_EVENT_BYTES)
    }
}

const SEGMENTS: u32 = 4;
const KEYS: usize = 1000;
/// Streams a run writes: the tail stream and, in two workloads, the bulk
/// stream.
const LANES: usize = 2;
const TAIL_EVENT_BYTES: usize = 100;
/// Events of 64 KiB kept outstanding by the `bulk_large` writer, and of
/// 16 KiB by the `catchup_replay` backlog writer.
const BULK_WINDOW: usize = 64;
/// `catchup_replay` backlog per second of `--seconds`: 128 MiB at 10 s.
const BACKLOG_BYTES_PER_SEC: u64 = 128 * 1024 * 1024 / 10;
/// Longest the `catchup_replay` writer keeps writing while it waits for the
/// replay to finish.
const REPLAY_LIMIT: Duration = Duration::from_secs(90);
/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 21;
/// Unmeasured load before the window of `tail_small` and `bulk_large`: the
/// window's schedule run early, so that the window opens on queues, caches
/// and flushes that are past their start-up.
const WARMUP: Duration = Duration::from_secs(3);
/// Longest sleep of the writer thread between polls of its acks, which
/// bounds how late an ack is noticed.
const POLL: Duration = Duration::from_micros(200);
/// The generator fell behind its schedule if it was later than this at the
/// median or at p99: the run then describes the load generator, not the
/// system, and must not be compared.
pub const LATENESS_LIMIT_MS: (f64, f64) = (1.0, 25.0);

/// Every event of a run comes from one generator, so event numbers are
/// unique across all of the run's clusters and per-key order is global.
pub struct Gen {
    rng: Rng,
    zipf: Zipf,
    key_seq: Vec<u32>,
    next_seq: u64,
    keys: Vec<String>,
    pub pool: PayloadPool,
}

struct Ev {
    key: usize,
    seq: u64,
    phase: Phase,
    payload: Bytes,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            zipf: Zipf::new(KEYS),
            key_seq: vec![0; KEYS * LANES],
            next_seq: 0,
            keys: (0..KEYS).map(|k| format!("key-{k}")).collect(),
            pool: PayloadPool::new(seed),
        }
    }

    /// The next event for the stream written by `lane`. Per-key order holds
    /// per stream, so each lane numbers its keys' events on its own.
    fn next(&mut self, lane: usize, phase: Phase, due_nanos: u64, len: usize) -> Ev {
        let key = self.zipf.sample(&mut self.rng);
        let slot = lane * KEYS + key;
        let h = Header {
            phase,
            key: slot as u16,
            key_seq: self.key_seq[slot],
            seq: self.next_seq,
            due_nanos,
        };
        self.key_seq[slot] += 1;
        self.next_seq += 1;
        Ev {
            key,
            seq: h.seq,
            phase,
            payload: self.pool.build(&h, len),
        }
    }
}

/// What one writer observed.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Every acked event of the current cluster.
    pub acked: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Tail events: `(due, due time to ack in ns)`.
    pub ack_ns: Vec<(Instant, u64)>,
    /// Tail events: how late each send was against its due time.
    pub lateness_ns: Vec<u64>,
    /// Time spent inside `write_event` for tail events.
    pub write_call_ns: Vec<u64>,
    /// Acked bytes and events that were sent inside the measured window.
    pub window_bytes: u64,
    pub window_events: u64,
    pub last_ack: Option<Instant>,
}

struct Pending {
    seq: u64,
    phase: Phase,
    bytes: u64,
    in_window: bool,
    due: Instant,
    sent: Instant,
    span: u64,
    promise: Option<Promise<Result<(), ClientError>>>,
}

pub struct Writer {
    inner: EventStreamWriter<Bytes, BytesSerializer>,
    pending: VecDeque<Pending>,
    keys: Vec<String>,
    /// 0 for the tail stream, 1 for the bulk stream.
    lane: usize,
    in_window: bool,
    pub log: WriteLog,
}

impl Writer {
    fn new(cluster: &PravegaCluster, stream: &ScopedStream, gen: &Gen, lane: usize) -> Self {
        Writer {
            inner: cluster.create_writer(stream.clone(), BytesSerializer, WriterConfig::default()),
            pending: VecDeque::new(),
            keys: gen.keys.clone(),
            lane,
            in_window: false,
            log: WriteLog::default(),
        }
    }

    fn send(&mut self, ev: Ev, due: Instant, spans: &mut Spans, parent: u64) {
        let t0 = Instant::now();
        let promise = self.inner.write_event(&self.keys[ev.key], &ev.payload);
        let t1 = Instant::now();
        if ev.phase == Phase::Tail {
            self.log.write_call_ns.push((t1 - t0).as_nanos() as u64);
        }
        let span = spans.record("client.write_event", parent, ev.seq, t0, t1);
        self.log.attempted += 1;
        self.pending.push_back(Pending {
            seq: ev.seq,
            phase: ev.phase,
            bytes: ev.payload.len() as u64,
            in_window: self.in_window,
            due,
            sent: t1,
            span,
            promise: Some(promise),
        });
    }

    fn complete(&mut self, p: Pending, ok: bool, now: Instant, spans: &mut Spans) {
        if !ok {
            self.log.failed += 1;
            return;
        }
        self.log.acked.push(p.seq);
        self.log.last_ack = Some(now);
        if p.phase == Phase::Tail {
            let ns = now.saturating_duration_since(p.due).as_nanos() as u64;
            self.log.ack_ns.push((p.due, ns));
        }
        if p.in_window {
            self.log.window_bytes += p.bytes;
            self.log.window_events += 1;
        }
        spans.record("client.ack", p.span, p.seq, p.sent, now);
    }

    /// Notes every ack that has arrived, without blocking.
    fn poll(&mut self, spans: &mut Spans) {
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].promise.as_ref().and_then(Promise::try_take) {
                None => i += 1,
                Some(r) => {
                    let now = Instant::now();
                    let p = self.pending.remove(i).expect("index in range");
                    self.complete(p, matches!(r, Ok(Ok(()))), now, spans);
                }
            }
        }
    }

    /// Blocks on the oldest outstanding event, then notes any other acks.
    fn wait_oldest(&mut self, spans: &mut Spans) {
        if let Some(mut p) = self.pending.pop_front() {
            let ok = p
                .promise
                .take()
                .is_some_and(|pr| matches!(pr.wait_for(Duration::from_secs(60)), Ok(Ok(()))));
            self.complete(p, ok, Instant::now(), spans);
        }
        self.poll(spans);
    }

    /// Waits for every outstanding ack; those still missing after a minute
    /// count as failed.
    fn drain(&mut self, spans: &mut Spans) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !self.pending.is_empty() && Instant::now() < deadline {
            self.poll(spans);
            std::thread::sleep(POLL);
        }
        self.log.failed += self.pending.len() as u64;
        self.pending.clear();
    }

    /// Writes one event and waits for it: completes the writer's segment
    /// handshakes during set-up.
    fn warmup(&mut self, gen: &mut Gen, spans: &mut Spans, parent: u64) -> Result<(), String> {
        let now = Instant::now();
        let ev = gen.next(self.lane, Phase::Warmup, spans.nanos(now), TAIL_EVENT_BYTES);
        self.send(ev, now, spans, parent);
        self.drain(spans);
        match self.log.failed {
            0 => Ok(()),
            _ => Err("set-up append failed".into()),
        }
    }

    /// Closed loop on this writer alone, until `bytes` have been sent.
    fn fill(&mut self, gen: &mut Gen, len: usize, bytes: u64, spans: &mut Spans, parent: u64) {
        let mut sent = 0;
        while sent < bytes {
            while self.pending.len() >= BULK_WINDOW {
                self.wait_oldest(spans);
            }
            let now = Instant::now();
            let ev = gen.next(self.lane, Phase::Bulk, spans.nanos(now), len);
            self.send(ev, now, spans, parent);
            sent += len as u64;
        }
        self.drain(spans);
    }
}

/// The writer thread: tail events open loop, each due at `first + i / rate`
/// and sent then whether or not earlier ones were acked; with a bulk writer,
/// 64 bulk events kept outstanding between them. Events sent before `start`
/// are warm-up: written and checked like the others, but not timed.
#[allow(clippy::too_many_arguments)]
fn write_window(
    gen: &mut Gen,
    tail: &mut Writer,
    mut bulk: Option<(&mut Writer, usize)>,
    rate: f64,
    (first, start): (Instant, Instant),
    stop: impl Fn(Instant) -> bool,
    spans: &mut Spans,
    parent: u64,
) {
    for i in 0u64.. {
        let due = first + Duration::from_secs_f64(i as f64 / rate);
        if stop(due) {
            break;
        }
        tail.in_window = due >= start;
        let phase = match tail.in_window {
            true => Phase::Tail,
            false => Phase::Warmup,
        };
        let ev = gen.next(tail.lane, phase, spans.nanos(due), TAIL_EVENT_BYTES);
        let now = loop {
            tail.poll(spans);
            let now = Instant::now();
            if now >= due {
                break now;
            }
            match bulk.as_mut() {
                Some((w, len)) if w.pending.len() < BULK_WINDOW => {
                    w.in_window = now >= start;
                    let ev = gen.next(w.lane, Phase::Bulk, spans.nanos(now), *len);
                    w.send(ev, now, spans, parent);
                }
                Some((w, _)) => {
                    w.poll(spans);
                    if w.pending.len() >= BULK_WINDOW {
                        std::thread::sleep((due - now).min(POLL));
                    }
                }
                None => std::thread::sleep((due - now).min(POLL)),
            }
        };
        if tail.in_window {
            tail.log.lateness_ns.push((now - due).as_nanos() as u64);
        }
        tail.send(ev, due, spans, parent);
    }
    tail.drain(spans);
    if let Some((w, _)) = bulk {
        w.drain(spans);
    }
}

/// What one reader observed, and the output checks it ran.
#[derive(Debug)]
pub struct ReadLog {
    /// Deliveries per event number.
    seen: Vec<u8>,
    last_key_seq: Vec<i64>,
    pub violations: u64,
    pub first_violation: Option<String>,
    /// Tail events: `(due, due time to delivery in ns)`.
    pub tail_ns: Vec<(Instant, u64)>,
    /// Time spent inside `read_next` calls that returned an event, for
    /// calls made from `timed_from` on.
    pub read_call_ns: Vec<u64>,
    timed_from: Option<Instant>,
    /// Phase whose read rate `catchup_read_mb_s` reports.
    target: Phase,
    /// Target-phase events: `(delivered at, bytes)`.
    pub target_reads: Vec<(Instant, u64)>,
    pub bytes: u64,
    pub distinct: u64,
    pub errors: u64,
}

impl ReadLog {
    fn new(target: Phase) -> Self {
        ReadLog {
            seen: Vec::new(),
            last_key_seq: vec![-1; KEYS * LANES],
            violations: 0,
            first_violation: None,
            tail_ns: Vec::new(),
            read_call_ns: Vec::new(),
            timed_from: None,
            target,
            target_reads: Vec::new(),
            bytes: 0,
            distinct: 0,
            errors: 0,
        }
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        self.first_violation.get_or_insert(what);
    }

    /// Checks one delivered payload: seeded bytes intact, per-key order,
    /// and no event delivered twice.
    fn observe(&mut self, pool: &PayloadPool, payload: &[u8], at: Instant, origin: Instant) {
        let h = match pool.check(payload) {
            Ok(h) => h,
            Err(e) => return self.violation(e),
        };
        let seq = h.seq as usize;
        if self.seen.len() <= seq {
            self.seen.resize(seq + 1, 0);
        }
        self.seen[seq] = self.seen[seq].saturating_add(1);
        if self.seen[seq] > 1 {
            return self.violation(format!("event {seq} delivered twice"));
        }
        self.distinct += 1;
        self.bytes += payload.len() as u64;
        let key = usize::from(h.key);
        let last = self.last_key_seq.get(key).copied().unwrap_or(i64::MAX);
        if i64::from(h.key_seq) <= last {
            return self.violation(format!(
                "key {key}: event {seq} (#{}) delivered after #{last}",
                h.key_seq
            ));
        }
        self.last_key_seq[key] = i64::from(h.key_seq);
        if h.phase == Phase::Tail {
            let due = origin + Duration::from_nanos(h.due_nanos);
            let ns = at.saturating_duration_since(due).as_nanos() as u64;
            self.tail_ns.push((due, ns));
        }
        if h.phase == self.target {
            self.target_reads.push((at, payload.len() as u64));
        }
    }

    /// Every acked event must have been delivered exactly once.
    fn check_acked<'a>(&mut self, acked: impl IntoIterator<Item = &'a u64>) {
        for &seq in acked {
            if self.seen.get(seq as usize).copied().unwrap_or(0) == 0 {
                self.violation(format!("acked event {seq} never delivered"));
            }
        }
    }

    /// Folds a second reader's checks into this one.
    fn merge_checks(&mut self, other: ReadLog) {
        self.violations += other.violations;
        self.errors += other.errors;
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation;
        }
    }
}

/// When a reader may stop: once `writer_done` is set and it has delivered
/// `expected` distinct events, or, when `target_total` is set, once it has
/// read that many target-phase events.
struct ReadUntil<'a> {
    writer_done: &'a AtomicBool,
    expected: &'a AtomicU64,
    target_total: Option<u64>,
}

type Reader = EventStreamReader<Bytes, BytesSerializer>;

/// Reads until the stop condition holds, or until nothing has arrived for
/// `IDLE_LIMIT` after the writer finished.
fn read_loop(
    reader: &mut Reader,
    log: &mut ReadLog,
    pool: &PayloadPool,
    until: &ReadUntil<'_>,
    origin: Instant,
    spans: &mut Spans,
    parent: u64,
) {
    const IDLE_LIMIT: Duration = Duration::from_secs(20);
    let mut last_progress = Instant::now();
    loop {
        let done = until.writer_done.load(Ordering::Acquire);
        if done && log.distinct >= until.expected.load(Ordering::Acquire) {
            return;
        }
        if until
            .target_total
            .is_some_and(|n| log.target_reads.len() as u64 >= n)
        {
            return;
        }
        let t0 = Instant::now();
        let r = reader.read_next(Duration::from_millis(100));
        let t1 = Instant::now();
        match r {
            Ok(Some(ev)) => {
                if log.timed_from.is_none_or(|from| t0 >= from) {
                    log.read_call_ns.push((t1 - t0).as_nanos() as u64);
                }
                spans.record("client.read_next", parent, 0, t0, t1);
                log.observe(pool, &ev.event, t1, origin);
                last_progress = t1;
            }
            Ok(None) => {}
            Err(e) => {
                log.errors += 1;
                if log.errors > 100 {
                    return log.violation(format!("reader failed: {e}"));
                }
            }
        }
        // A reader that stopped delivering ends the loop; the output check
        // then reports what it missed.
        if (done || until.target_total.is_some()) && t1 - last_progress > IDLE_LIMIT {
            return;
        }
    }
}

/// A reader over `stream` from its head, in a reader group of its own.
fn open_reader(
    cluster: &PravegaCluster,
    stream: &ScopedStream,
    group: &str,
) -> Result<Reader, String> {
    let group = cluster
        .create_reader_group("bench", group, vec![stream.clone()])
        .map_err(|e| format!("create reader group: {e}"))?;
    Ok(cluster.create_reader(&group, "reader-0", BytesSerializer))
}

/// Reads `stream` from the head with a fresh reader group until every
/// event of `acked` is delivered, and checks what it read.
struct ReadBack<'a> {
    cluster: &'a PravegaCluster,
    pool: &'a PayloadPool,
    origin: Instant,
}

impl ReadBack<'_> {
    fn run(
        &self,
        (stream, group): (&ScopedStream, &str),
        acked: &[u64],
        log: &mut ReadLog,
        (spans, parent): (&mut Spans, u64),
    ) -> Result<(), String> {
        let mut reader = open_reader(self.cluster, stream, group)?;
        let (done, expected) = (AtomicBool::new(true), AtomicU64::new(acked.len() as u64));
        let until = ReadUntil {
            writer_done: &done,
            expected: &expected,
            target_total: None,
        };
        read_loop(
            &mut reader,
            log,
            self.pool,
            &until,
            self.origin,
            spans,
            parent,
        );
        log.check_acked(acked);
        Ok(())
    }
}

/// A cluster after one set-up: booted, scope and streams created, both
/// clients past their handshakes, and the handshake events read back.
struct Booted {
    cluster: PravegaCluster,
    tail: Writer,
    bulk: Option<Writer>,
}

fn stream(name: &str) -> ScopedStream {
    ScopedStream::new("bench", name).expect("valid stream name")
}

fn boot(
    workload: Workload,
    gen: &mut Gen,
    origin: Instant,
    spans: &mut Spans,
    parent: u64,
) -> Result<Booted, String> {
    let config = ClusterConfig {
        transport: TransportKind::Tcp,
        ..ClusterConfig::default()
    };
    let cluster = PravegaCluster::start(config).map_err(|e| format!("start cluster: {e}"))?;
    cluster
        .create_scope("bench")
        .map_err(|e| format!("create scope: {e}"))?;
    let mut streams = vec![(stream("tail"), workload.tail_segments())];
    if workload.bulk_event_bytes().is_some() {
        streams.push((stream("bulk"), SEGMENTS));
    }
    for (s, segments) in &streams {
        cluster
            .create_stream(s, StreamConfiguration::new(ScalingPolicy::fixed(*segments)))
            .map_err(|e| format!("create stream: {e}"))?;
    }
    let mut writers = Vec::new();
    for (lane, (s, _)) in streams.iter().enumerate() {
        let mut w = Writer::new(&cluster, s, gen, lane);
        w.warmup(gen, spans, parent)?;
        let mut log = ReadLog::new(Phase::Tail);
        let check = ReadBack {
            cluster: &cluster,
            pool: &gen.pool,
            origin,
        };
        let group = format!("setup-{}", s.stream());
        check.run((s, &group), &w.log.acked, &mut log, (spans, parent))?;
        if let Some(v) = log.first_violation {
            return Err(format!("set-up read: {v}"));
        }
        writers.push(w);
    }
    let mut writers = writers.into_iter();
    let tail = writers.next().expect("the tail stream's writer");
    Ok(Booted {
        cluster,
        tail,
        bulk: writers.next(),
    })
}

/// Everything a run measured, before it is turned into named metrics.
pub struct RunResult {
    pub setup_s: f64,
    /// From the start of the measured window to its last ack.
    pub window_s: f64,
    /// Process CPU over the measured window.
    pub cpu_s: f64,
    /// The open-loop tail writer, and the bulk writer if any.
    pub tail: WriteLog,
    pub bulk: WriteLog,
    /// The window's reader.
    pub read: ReadLog,
    /// Target-phase reads behind `catchup_read_mb_s`: `(delivered at, bytes)`.
    pub target_reads: Vec<(Instant, u64)>,
    pub layers: Vec<(String, f64, &'static str)>,
    pub spans: Spans,
}

impl RunResult {
    pub fn lateness_ms(&mut self) -> (f64, f64) {
        let l = &mut self.tail.lateness_ns;
        (ms(percentile(l, 50.0)), ms(percentile(l, 99.0)))
    }

    pub fn correct(&self) -> bool {
        self.read.violations == 0
    }

    /// Appends attempted, plus the acked events the readers had to deliver.
    pub fn attempted(&self) -> u64 {
        let w = |l: &WriteLog| l.attempted + l.acked.len() as u64;
        w(&self.tail) + w(&self.bulk)
    }

    /// Failed or refused appends, plus failed reads.
    pub fn failed(&self) -> u64 {
        self.tail.failed + self.bulk.failed + self.read.errors
    }

    pub fn failed_ops_pct(&self) -> f64 {
        100.0 * self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, f64, &'static str)> {
        let (t, b, r) = (&mut self.tail, &self.bulk, &mut self.read);
        let written = t.window_bytes + b.window_bytes;
        let moved_mb = (written + r.bytes) as f64 / 1e6;
        let moved_events = (t.window_events + b.window_events + r.distinct) as f64;
        vec![
            ("setup_s", self.setup_s, "s"),
            (
                "append_p50_ms",
                ms(pooled_percentile(&t.ack_ns, 50.0)),
                "ms",
            ),
            (
                "append_p99_ms",
                ms(grouped_percentile(&t.ack_ns, 99.0)),
                "ms",
            ),
            (
                "tail_read_p50_ms",
                ms(pooled_percentile(&r.tail_ns, 50.0)),
                "ms",
            ),
            (
                "tail_read_p99_ms",
                ms(grouped_percentile(&r.tail_ns, 99.0)),
                "ms",
            ),
            ("ingest_mb_s", written as f64 / 1e6 / self.window_s, "MB/s"),
            (
                "catchup_read_mb_s",
                span_rate(&self.target_reads) / 1e6,
                "MB/s",
            ),
            ("cpu_ms_per_mb", self.cpu_s * 1e3 / moved_mb, "ms/MB"),
            (
                "cpu_us_per_event",
                self.cpu_s * 1e6 / moved_events,
                "us/event",
            ),
        ]
    }
}

/// Runs one workload end to end and returns what it measured.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(trace, origin, 0);
    let mut gen = Gen::new(seed);

    // Set-up, repeated: every set-up but the last is torn down again.
    let mut setups = Vec::new();
    let mut kept: Option<Booted> = None;
    for _ in 0..SETUP_REPS {
        let (t0, id) = (Instant::now(), spans.begin());
        let booted = boot(workload, &mut gen, origin, &mut spans, id)?;
        let t1 = Instant::now();
        spans.finish(id, "setup", 0, 0, (t0, t1));
        setups.push((t1 - t0).as_secs_f64());
        if let Some(old) = kept.replace(booted) {
            drop((old.tail, old.bulk));
            old.cluster.shutdown();
        }
    }
    let mut setup_s = median(&mut setups);
    let Booted {
        mut cluster,
        mut tail,
        mut bulk,
    } = kept.expect("at least one set-up");
    // Acked events of the current cluster that the window's reader must
    // deliver, besides the tail writer's.
    let mut acked_before: Vec<u64> = Vec::new();
    // `catchup_replay`: the backlog reader and the number of backlog events.
    let mut replay: Option<(Reader, u64)> = None;

    if workload == Workload::CatchupReplay {
        // The backlog: written, tiered to LTS, then the whole cluster
        // restarts so that the replay starts with a cold cache.
        let (t0, id) = (Instant::now(), spans.begin());
        let mut w = bulk.take().expect("catchup_replay has a bulk writer");
        let len = workload.replay_event_bytes();
        w.fill(
            &mut gen,
            len,
            seconds * BACKLOG_BYTES_PER_SEC,
            &mut spans,
            id,
        );
        let t1 = Instant::now();
        spans.finish(id, "prefill", 0, 0, (t0, t1));
        if w.log.failed > 0 {
            return Err(format!("{} backlog appends failed", w.log.failed));
        }
        let backlog = w.log.attempted - 1; // all but the set-up event
        acked_before.extend(&w.log.acked);
        acked_before.extend(&tail.log.acked);
        drop((w, tail));
        let id = spans.begin();
        cluster
            .wait_for_tiering(Duration::from_secs(90))
            .map_err(|e| format!("tiering: {e}"))?;
        cluster = cluster
            .crash_and_restart()
            .map_err(|e| format!("restart: {e}"))?;
        tail = Writer::new(&cluster, &stream("tail"), &gen, 0);
        tail.warmup(&mut gen, &mut spans, id)?;
        let t2 = Instant::now();
        spans.finish(id, "restart", 0, 0, (t1, t2));
        setup_s += (t2 - t0).as_secs_f64();
        replay = Some((open_reader(&cluster, &stream("bulk"), "replay")?, backlog));
    }
    let mut reader = open_reader(&cluster, &stream("tail"), "window")?;
    let target = match replay {
        Some(_) => Phase::Bulk,
        None => Phase::Tail,
    };
    let mut read_log = ReadLog::new(target);

    // The warm-up, then the measured window: one open-loop schedule, read
    // throughout. `catchup_replay` has no warm-up, as its replay must start
    // cold.
    let warmup = match workload {
        Workload::CatchupReplay => Duration::ZERO,
        _ => WARMUP,
    };
    let (warm_id, measure) = (spans.begin(), spans.begin());
    let first = Instant::now();
    let start = first + warmup;
    let end = start + Duration::from_secs(seconds);
    read_log.timed_from = Some(start);
    let writer_done = AtomicBool::new(false);
    let expected = AtomicU64::new(u64::MAX);
    let replay_done = AtomicBool::new(false);
    let until = ReadUntil {
        writer_done: &writer_done,
        expected: &expected,
        target_total: None,
    };
    let rate = workload.tail_rate();
    let bulk_len = workload.replay_event_bytes();
    let mut sampled = Sampled::default();
    // The writer thread owns the generator; the reader checks payloads
    // against its own copy of the seeded pool.
    let reader_pool = PayloadPool::new(seed);
    let (wspans, rspans, window, cpu0) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let mut ws = Spans::new(trace, origin, 1);
            // `catchup_replay` writes for as long as the replay runs.
            let stop = |due: Instant| match workload {
                Workload::CatchupReplay => {
                    replay_done.load(Ordering::Acquire) || due >= start + REPLAY_LIMIT
                }
                _ => due >= end,
            };
            let bulk = bulk.as_mut().map(|w| (w, bulk_len));
            write_window(
                &mut gen,
                &mut tail,
                bulk,
                rate,
                (first, start),
                stop,
                &mut ws,
                measure,
            );
            let total = tail.log.acked.len() + acked_before.len();
            expected.store(total as u64, Ordering::Release);
            writer_done.store(true, Ordering::Release);
            ws
        });
        let r = s.spawn(|| {
            let mut rs = Spans::new(trace, origin, 2);
            // `catchup_replay` replays the backlog first and reads the tail
            // events written meanwhile after it.
            if let Some((r, backlog)) = replay.as_mut() {
                let until = ReadUntil {
                    target_total: Some(*backlog),
                    ..until
                };
                read_loop(
                    r,
                    &mut read_log,
                    &reader_pool,
                    &until,
                    origin,
                    &mut rs,
                    measure,
                );
                replay_done.store(true, Ordering::Release);
            }
            read_loop(
                &mut reader,
                &mut read_log,
                &reader_pool,
                &until,
                origin,
                &mut rs,
                measure,
            );
            rs
        });
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let window = LayerWindow::begin(&cluster, trace);
        let cpu0 = stats::process_cpu_secs();
        while !(w.is_finished() && r.is_finished()) {
            sampled.sample(&cluster);
            std::thread::sleep(Duration::from_millis(50));
        }
        let ws = w.join().expect("writer thread");
        (ws, r.join().expect("reader thread"), window, cpu0)
    });
    let stop = Instant::now();
    let cpu_s = stats::process_cpu_secs() - cpu0;
    if !warmup.is_zero() {
        spans.finish(warm_id, "warmup", 0, 0, (first, start));
    }
    spans.finish(measure, "measure", 0, 0, (start, stop));
    spans.absorb(wspans);
    spans.absorb(rspans);
    read_log.check_acked(tail.log.acked.iter().chain(&acked_before));
    let last_ack = [
        tail.log.last_ack,
        bulk.as_ref().and_then(|w| w.log.last_ack),
    ]
    .into_iter()
    .flatten()
    .max()
    .unwrap_or(stop);
    let window_s = last_ack.saturating_duration_since(start).as_secs_f64();

    let layers = if trace {
        let (t0, id) = (Instant::now(), spans.begin());
        let out = window.end(
            &cluster,
            workload,
            (&tail.log, &read_log),
            tail.log.window_bytes + bulk.as_ref().map_or(0, |w| w.log.window_bytes),
            &sampled,
            stop - start,
            &mut spans,
            id,
        );
        spans.finish(id, "replays", 0, 0, (t0, Instant::now()));
        out
    } else {
        Vec::new()
    };

    // `bulk_large` reads its bulk stream back from the head after the
    // window: that read is both its output check and its catch-up rate.
    let mut target_reads = std::mem::take(&mut read_log.target_reads);
    let (t0, id) = (Instant::now(), spans.begin());
    if let Some(w) = bulk.as_ref() {
        let mut log = ReadLog::new(Phase::Bulk);
        let check = ReadBack {
            cluster: &cluster,
            pool: &reader_pool,
            origin,
        };
        check.run(
            (&stream("bulk"), "readback"),
            &w.log.acked,
            &mut log,
            (&mut spans, id),
        )?;
        target_reads = std::mem::take(&mut log.target_reads);
        read_log.merge_checks(log);
    }
    let bulk_log = bulk.as_mut().map(|w| std::mem::take(&mut w.log));
    let tail_log = std::mem::take(&mut tail.log);
    drop((tail, bulk, reader, replay, cluster));
    spans.finish(id, "drain", 0, 0, (t0, Instant::now()));

    Ok(RunResult {
        setup_s,
        window_s,
        cpu_s,
        tail: tail_log,
        bulk: bulk_log.unwrap_or_default(),
        read: read_log,
        target_reads,
        layers,
        spans,
    })
}
