//! One open-loop benchmark of the embedded cluster over TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tail_small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Boots `PravegaCluster` with `ClusterConfig::default()` and
//! `TransportKind::Tcp`, drives one workload generated from `--seed`, checks
//! that every acked event is read back exactly once, in per-key order and
//! with its seeded bytes, and prints every metric with its unit. The last
//! line of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See `README.md`.

mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::{RunResult, Workload, LATENESS_LIMIT_MS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds takes a u64")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {names:?}"))?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Where runs leave their records (`results.jsonl`) and span files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A finite number with all its digits (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(r: &RunResult, metrics: &[(String, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted(),
        r.failed()
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s + "}}"
}

fn print_metrics(title: &str, metrics: &[(String, f64, &str)]) {
    println!("{title}:");
    for (name, value, unit) in metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
}

/// The traced `tail_small` breakdown of `append_p50_ms`. The client's own
/// wait before a block ships is what the append takes beyond the block's
/// round trip. Inside the round trip, the durable log's WAL append time runs
/// from the moment a data frame opens to its WAL ack, so it contains the
/// frame-batching delay; `residual_ms` is the rest of the round trip (wire,
/// frontend, container admission, ack delivery). The durable-log figures
/// are per frame and the client's per block, so medians need not add up: a
/// negative residual means blocks join frames that are already open.
fn print_breakdown(e2e: &[(String, f64, &str)], layers: &[(String, f64, &str)]) {
    let get =
        |set: &[(String, f64, &str)], n: &str| set.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
    let append = get(e2e, "append_p50_ms");
    let rtt = get(layers, "client.rtt_ms_p50");
    let delay = get(layers, "durablelog.batch_delay_ms_p50");
    let wal = get(layers, "durablelog.wal_append_ms_p50");
    println!("append breakdown (medians, ms; report only):");
    println!("  append_p50_ms                          {append:>10.3}");
    println!(
        "    client_batch_wait_ms                 {:>10.3}",
        append - rtt
    );
    println!("    client.rtt_ms_p50                    {rtt:>10.3}");
    println!("      durablelog.wal_append_ms_p50       {wal:>10.3}");
    println!("        durablelog.batch_delay_ms_p50    {delay:>10.3}");
    println!(
        "      residual_ms                        {:>10.3}",
        rtt - wal
    );
}

/// Traced minus untraced figures of the same workload and length; the
/// untraced ones come from the most recent valid untraced record in
/// `results.jsonl`.
fn print_overhead(records: &Path, args: &Args, traced: &[(String, f64, &str)]) {
    let head = format!("{{\"workload\": \"{}\", \"seed\": ", args.workload.name());
    let tag = format!(
        ", \"seconds\": {}, \"trace\": 0, \"valid\": true,",
        args.seconds
    );
    let text = std::fs::read_to_string(records).unwrap_or_default();
    let Some(base) = text
        .lines()
        .rev()
        .find(|l| l.starts_with(&head) && l.contains(&tag))
    else {
        println!("tracing overhead: no untraced run of this workload and length to compare with");
        return;
    };
    println!(
        "tracing overhead (traced - untraced, untraced from {}):",
        records.display()
    );
    for (name, v, unit) in traced {
        let key = format!("\"{name}\": {{\"value\": ");
        let value = base.find(&key).and_then(|i| {
            let rest = &base[i + key.len()..];
            rest[..rest.find(',')?].parse::<f64>().ok()
        });
        if let Some(b) = value.filter(|b| *b != 0.0) {
            let pct = 100.0 * (v - b) / b;
            println!("  {name:<36} {:>+12.4} {unit} ({pct:+.1}%)", v - b);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut r = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };

    let (late50, late99) = r.lateness_ms();
    let (limit50, limit99) = LATENESS_LIMIT_MS;
    let valid = late50 <= limit50 && late99 <= limit99;
    println!(
        "generator lateness: p50 {late50:.3} ms, p99 {late99:.3} ms (limits {limit50} / {limit99} ms) -> {}",
        if valid { "valid" } else { "INVALID: the generator fell behind; do not compare this run" }
    );
    let e2e: Vec<(String, f64, &str)> = r
        .end_to_end()
        .into_iter()
        .map(|(n, v, u)| (n.to_string(), v, u))
        .collect();
    let mut shown = e2e.clone();
    shown.push(("failed_ops_pct".into(), r.failed_ops_pct(), "%"));
    print_metrics("end-to-end", &shown);
    println!(
        "output check: {} ({} appends attempted, {} acked, {} failed; {} distinct events read)",
        if r.correct() { "ok" } else { "FAILED" },
        r.tail.attempted + r.bulk.attempted,
        r.tail.acked.len() + r.bulk.acked.len(),
        r.failed(),
        r.read.distinct
    );
    if let Some(v) = &r.read.first_violation {
        println!("  first violation: {v} ({} in all)", r.read.violations);
    }

    let _ = std::fs::create_dir_all(out_dir());
    let records = out_dir().join("results.jsonl");
    let metrics = if args.trace {
        print_metrics("per-layer", &r.layers);
        if args.workload == Workload::TailSmall {
            print_breakdown(&e2e, &r.layers);
        }
        print_overhead(&records, &args, &e2e);
        let path = out_dir().join(format!("spans_{}.jsonl", args.workload.name()));
        match r.spans.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                r.spans.list.len(),
                path.display()
            ),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
        r.layers.clone()
    } else {
        e2e
    };
    let line = result_line(&r, &metrics);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"valid\": {valid}, \
         \"lateness_p50_ms\": {}, \"lateness_p99_ms\": {}, \"failed_ops_pct\": {}, \"result\": {line}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        num(late50),
        num(late99),
        num(r.failed_ops_pct()),
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&records)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: could not record the run: {e}");
    }
    println!("{line}");
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
