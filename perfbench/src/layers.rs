//! Per-layer metrics of a traced run, taken from outside the program:
//!
//! * start/end deltas of the instruments the layers already export through
//!   `cluster.metrics().snapshot()` (histograms are reset when the window
//!   opens, so their percentiles cover the window alone);
//! * the benchmark's own timings around its client calls;
//! * replays, after the window, that time one layer's public function on
//!   inputs shaped like the workload's.

use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use pravega_common::buf::crc32c;
use pravega_common::id::{ScopedStream, SegmentId, WriterId};
use pravega_common::metrics::{HistogramSummary, Snapshot};
use pravega_common::protocol::{encode_request, FrameDecoder};
use pravega_common::wire::{Request, RequestEnvelope};
use pravega_core::{ClusterConfig, PravegaCluster};
use pravega_segmentstore::cache::{BlockCache, CacheConfig};
use pravega_segmentstore::container::ContainerConfig;
use pravega_segmentstore::dataframe::DataFrameBuilder;
use pravega_segmentstore::operations::Operation;

use crate::stats::{self, median, percentile};
use crate::trace::Spans;
use crate::workload::{ReadLog, Workload, WriteLog};

/// Values the main thread samples while the load runs.
#[derive(Debug, Default)]
pub struct Sampled {
    pub threads_peak: u64,
    pub flush_lag_max_bytes: i64,
}

impl Sampled {
    pub fn sample(&mut self, cluster: &PravegaCluster) {
        self.threads_peak = self.threads_peak.max(stats::process_threads());
        let lag = cluster
            .metrics()
            .registry()
            .gauge("segmentstore.storagewriter.flush_lag_bytes")
            .get();
        self.flush_lag_max_bytes = self.flush_lag_max_bytes.max(lag);
    }
}

/// The instruments' state when the measured window opened.
pub struct LayerWindow {
    begin: Snapshot,
}

const STALL_CLASSES: [&str; 5] = [
    "throttle",
    "flush",
    "truncation",
    "cache_evict",
    "wal_rollover",
];

impl LayerWindow {
    pub fn begin(cluster: &PravegaCluster, reset_histograms: bool) -> Self {
        let metrics = cluster.metrics();
        if reset_histograms {
            // Only the registry's own histograms: the snapshot also carries
            // per-bookie journal histograms, folded in under names the
            // registry must not shadow.
            let registry = metrics.registry();
            for (name, _) in registry.snapshot().histograms {
                registry.histogram(&name).reset();
            }
        }
        LayerWindow {
            begin: metrics.snapshot(),
        }
    }

    /// Closes the window and runs the replays. Returns `(name, value, unit)`
    /// in `BENCHMARK.json` order.
    #[allow(clippy::too_many_arguments)]
    pub fn end(
        self,
        cluster: &PravegaCluster,
        workload: Workload,
        (write, read): (&WriteLog, &ReadLog),
        user_bytes: u64,
        sampled: &Sampled,
        window: Duration,
        spans: &mut Spans,
        parent: u64,
    ) -> Vec<(String, f64, &'static str)> {
        let end = cluster.metrics().snapshot();
        let begin = &self.begin;
        let secs = window.as_secs_f64();
        let counter = |n: &str| {
            end.counter(n)
                .unwrap_or(0)
                .saturating_sub(begin.counter(n).unwrap_or(0)) as f64
        };
        let empty = HistogramSummary {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p95: 0,
            p99: 0,
        };
        let hist = |n: &str| end.histogram(n).cloned().unwrap_or(empty.clone());
        let hist_delta = |n: &str| {
            let (a, b) = (
                hist(n),
                begin.histogram(n).cloned().unwrap_or(empty.clone()),
            );
            (
                a.count.saturating_sub(b.count) as f64,
                a.sum.saturating_sub(b.sum) as f64,
            )
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let to_ms = |nanos: u64| nanos as f64 / 1e6;

        let user_bytes = user_bytes as f64;
        let (blocks, _) = hist_delta("client.writer.batch_bytes");
        let (frames, frame_bytes) = hist_delta("segmentstore.durablelog.frame_bytes");
        let (gc_count, gc_sum) = hist_delta("wal.journal.group_commit_entries");
        let (_, lts_read_nanos) = hist_delta("lts.chunked.read_nanos");
        let hits = counter("segmentstore.readindex.cache_hits");
        let misses = counter("segmentstore.readindex.cache_misses");
        let write_quorum = ClusterConfig::default().replication.write_quorum as f64;

        // Replay inputs: the workload's event size, and the append-block
        // size the client actually sent in the window.
        let event = workload.replay_event_bytes();
        let block = (hist("client.writer.batch_bytes").p50 as usize).max(event + 4);
        let mut replay = |name: &'static str, f: &mut dyn FnMut() -> usize| {
            let t0 = Instant::now();
            let v = ns_per_kib(f);
            spans.record(name, parent, 0, t0, Instant::now());
            v
        };
        let (encode, decode) = replay_wire(block, &mut replay);
        let crc = replay_crc(event, &mut replay);
        let build = replay_dataframe(block, &mut replay);
        let insert = replay_cache(event, &mut replay);

        let mut out: Vec<(String, f64, &'static str)> = vec![
            (
                "client.rtt_ms_p50".into(),
                to_ms(hist("client.writer.rtt_nanos").p50),
                "ms",
            ),
            (
                "client.events_per_block".into(),
                ratio(counter("client.writer.events_written"), blocks),
                "count",
            ),
            (
                "client.write_call_us_p99".into(),
                percentile(&mut write.write_call_ns.clone(), 99.0) as f64 / 1e3,
                "us",
            ),
            (
                "client.read_call_ms_p50".into(),
                to_ms(percentile(&mut read.read_call_ns.clone(), 50.0)),
                "ms",
            ),
            ("wire.encode_ns_per_kib".into(), encode, "ns/KiB"),
            ("wire.decode_ns_per_kib".into(), decode, "ns/KiB"),
            (
                "process.threads_peak".into(),
                sampled.threads_peak as f64,
                "count",
            ),
            ("crc.ns_per_kib".into(), crc, "ns/KiB"),
            (
                "container.throttle_wait_ms_sum".into(),
                hist_delta("segmentstore.container.throttle_wait_nanos").1 / 1e6,
                "ms",
            ),
            (
                "container.throttle_engaged".into(),
                counter("segmentstore.container.throttle_engaged"),
                "count",
            ),
            (
                "durablelog.batch_delay_ms_p50".into(),
                to_ms(hist("segmentstore.durablelog.batch_delay_nanos").p50),
                "ms",
            ),
            (
                "durablelog.ops_per_frame".into(),
                ratio(blocks, frames),
                "count",
            ),
            (
                "durablelog.frame_kib_p50".into(),
                hist("segmentstore.durablelog.frame_bytes").p50 as f64 / 1024.0,
                "KiB",
            ),
            (
                "durablelog.wal_append_ms_p50".into(),
                to_ms(hist("segmentstore.durablelog.wal_append_nanos").p50),
                "ms",
            ),
            (
                "durablelog.wal_append_ms_p99".into(),
                to_ms(hist("segmentstore.durablelog.wal_append_nanos").p99),
                "ms",
            ),
            ("dataframe.build_ns_per_kib".into(), build, "ns/KiB"),
            (
                "wal.journal_syncs_per_s".into(),
                counter("wal.journal.syncs") / secs,
                "1/s",
            ),
            (
                "wal.group_commit_entries_mean".into(),
                ratio(gc_sum, gc_count),
                "count",
            ),
            (
                "wal.bytes_per_user_byte".into(),
                ratio(frame_bytes * write_quorum, user_bytes),
                "ratio",
            ),
            (
                "storagewriter.flush_busy_pct".into(),
                100.0 * hist_delta("segmentstore.storagewriter.flush_pass_nanos").1 / 1e9 / secs,
                "%",
            ),
            (
                "storagewriter.flushed_mb_s".into(),
                counter("segmentstore.storagewriter.flushed_bytes") / 1e6 / secs,
                "MB/s",
            ),
            (
                "storagewriter.flush_lag_mb_max".into(),
                sampled.flush_lag_max_bytes as f64 / 1e6,
                "MB",
            ),
        ];
        for class in STALL_CLASSES {
            let nanos = hist_delta(&format!("segmentstore.stalls.{class}_nanos")).1;
            out.push((format!("stalls.{class}_ms"), nanos / 1e6, "ms"));
        }
        out.extend([
            (
                "lts.write_ms_p50".to_string(),
                to_ms(hist("lts.chunked.write_nanos").p50),
                "ms",
            ),
            (
                "lts.read_ms_p50".into(),
                to_ms(hist("lts.chunked.read_nanos").p50),
                "ms",
            ),
            (
                "lts.read_mb_s".into(),
                ratio(
                    counter("lts.chunked.read_bytes") / 1e6,
                    lts_read_nanos / 1e9,
                ),
                "MB/s",
            ),
            (
                "lts.retries".into(),
                counter("lts.chunked.retries"),
                "count",
            ),
            (
                "lts.bytes_per_user_byte".into(),
                ratio(counter("lts.chunked.write_bytes"), user_bytes),
                "ratio",
            ),
            (
                "readindex.cache_hit_ratio".into(),
                ratio(hits, hits + misses),
                "ratio",
            ),
            (
                "readindex.tail_read_waits".into(),
                counter("segmentstore.readindex.tail_read_waits"),
                "count",
            ),
            ("cache.insert_ns_per_kib".into(), insert, "ns/KiB"),
        ]);
        out
    }
}

/// Median over three ~100 ms rounds of `op`, which returns the bytes it
/// processed, in nanoseconds per KiB.
fn ns_per_kib(op: &mut dyn FnMut() -> usize) -> f64 {
    let mut rounds: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut bytes = 0usize;
            while t0.elapsed() < Duration::from_millis(100) {
                for _ in 0..16 {
                    bytes += op();
                }
            }
            t0.elapsed().as_nanos() as f64 / (bytes as f64 / 1024.0)
        })
        .collect();
    median(&mut rounds)
}

type Replay<'a> = dyn FnMut(&'static str, &mut dyn FnMut() -> usize) -> f64 + 'a;

fn filler(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>())
}

/// `encode_request` and `FrameDecoder` on one append block.
fn replay_wire(block: usize, replay: &mut Replay<'_>) -> (f64, f64) {
    let stream = ScopedStream::new("bench", "events").expect("valid stream name");
    let envelope = RequestEnvelope {
        request_id: 1,
        request: Request::AppendBlock {
            writer_id: WriterId(1),
            segment: stream.segment(SegmentId::new(0, 0)),
            last_event_number: 1,
            event_count: 1,
            data: filler(block),
            expected_offset: None,
        },
    };
    let mut out = BytesMut::new();
    let encode = replay("replay.wire_encode", &mut || {
        out.clear();
        encode_request(&envelope, &mut out);
        block
    });
    let mut frame = BytesMut::new();
    encode_request(&envelope, &mut frame);
    let frame = frame.freeze();
    let mut decoder = FrameDecoder::new();
    let decode = replay("replay.wire_decode", &mut || {
        decoder.feed(&frame);
        match decoder.next_request() {
            Ok(Some(_)) => block,
            _ => panic!("replayed frame failed to decode"),
        }
    });
    (encode, decode)
}

/// `crc32c` over one event.
fn replay_crc(event: usize, replay: &mut Replay<'_>) -> f64 {
    let data = filler(event);
    let mut acc = 0u32;
    let v = replay("replay.crc", &mut || {
        acc ^= crc32c(&data);
        event
    });
    std::hint::black_box(acc);
    v
}

/// `DataFrameBuilder`: append operations of one block each, sealed into a
/// frame whenever the builder is full.
fn replay_dataframe(block: usize, replay: &mut Replay<'_>) -> f64 {
    let op = Operation::Append {
        segment: "bench/events/0.#epoch.0".into(),
        offset: 0,
        data: filler(block),
        writer_id: WriterId(1),
        last_event_number: 1,
        event_count: 1,
    };
    let mut builder = DataFrameBuilder::new(ContainerConfig::default().max_frame_bytes);
    let mut seq = 0u64;
    replay("replay.dataframe", &mut || {
        builder.push_op(seq, &op);
        seq += 1;
        if builder.is_full() {
            std::hint::black_box(builder.seal_frame().expect("frame seals"));
        }
        block
    })
}

/// `BlockCache::insert` of one event each; whenever the cache is full it is
/// emptied, and those deletes are part of the timed loop.
fn replay_cache(event: usize, replay: &mut Replay<'_>) -> f64 {
    let data = filler(event);
    let mut cache = BlockCache::new(CacheConfig::default());
    let mut live = Vec::new();
    replay("replay.cache_insert", &mut || {
        let addr = cache.insert(&data).unwrap_or_else(|_| {
            for addr in live.drain(..) {
                cache.delete(addr).expect("live entry");
            }
            cache.insert(&data).expect("an empty cache has room")
        });
        live.push(addr);
        event
    })
}
