//! Measurements taken from outside the program: sample percentiles, process
//! CPU time from `/proc/self/stat` and thread count from `/proc/self/status`.

use std::time::Instant;

/// Nearest-rank percentile of `samples` (sorted in place); 0 when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// Median of a few floats (used for repeated set-ups and replays).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Consecutive groups a run's samples are split into by the robust
/// statistics below; odd, so the median is one group's value.
pub const GROUPS: usize = 9;

/// Splits `samples` (in time order) into [`GROUPS`] consecutive groups of
/// equal count, applies `stat` to each and returns the median. One stalled
/// stretch of a run then moves the result by one rank instead of setting
/// the whole run's tail, so two runs compare their typical behaviour rather
/// than the luck of a single stall.
fn median_of_groups<T>(samples: &[T], stat: impl Fn(&[T]) -> f64) -> f64 {
    let size = samples.len() / GROUPS;
    let mut per_group: Vec<f64> = samples.chunks(size.max(1)).take(GROUPS).map(stat).collect();
    median(&mut per_group)
}

/// Percentile `p` of `(due, value)` samples: the median over [`GROUPS`]
/// groups in due order of each group's percentile, or the whole set's
/// percentile when a group would hold fewer than `MIN_GROUP_SAMPLES`.
pub fn grouped_percentile(samples: &[(Instant, u64)], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by_key(|s| s.0);
    let pct = |group: &[(Instant, u64)]| {
        let mut values: Vec<u64> = group.iter().map(|s| s.1).collect();
        percentile(&mut values, p) as f64
    };
    if sorted.len() < GROUPS * MIN_GROUP_SAMPLES {
        return pct(&sorted) as u64;
    }
    median_of_groups(&sorted, pct) as u64
}

/// Percentile `p` of all of a run's `(due, value)` samples. Used for
/// medians: a stall confined to one stretch moves the median little, and
/// pooling every sample varies less from run to run than the median of
/// [`GROUPS`] group medians does.
pub fn pooled_percentile(samples: &[(Instant, u64)], p: f64) -> u64 {
    let mut values: Vec<u64> = samples.iter().map(|s| s.1).collect();
    percentile(&mut values, p)
}

/// Fewest samples per group for [`grouped_percentile`] to split: 100 leaves
/// a group's p99 one rank from its maximum.
pub const MIN_GROUP_SAMPLES: usize = 100;

/// Bytes per second of `(delivered at, bytes)` samples in time order: the
/// bytes after the first sample over the time from the first to the last.
/// A stall lowers it in proportion to its length, as it does for a reader.
pub fn span_rate(samples: &[(Instant, u64)]) -> f64 {
    match (samples.first(), samples.last()) {
        (Some(a), Some(b)) if b.0 > a.0 => {
            let bytes: u64 = samples[1..].iter().map(|s| s.1).sum();
            bytes as f64 / (b.0 - a.0).as_secs_f64()
        }
        _ => f64::NAN,
    }
}

pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`), which
/// Linux fixes at 100 for every architecture's user-visible interface.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far.
pub fn process_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Live threads in this process.
pub fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn one_stalled_group_does_not_move_the_grouped_tail() {
        let t0 = Instant::now();
        let at = |i: u64| t0 + Duration::from_millis(i);
        let mut samples: Vec<(Instant, u64)> = (0..9000).map(|i| (at(i), 10 + i % 7)).collect();
        // A stall: every sample of the third group takes 100x longer.
        for s in &mut samples[2000..3000] {
            s.1 *= 100;
        }
        samples.reverse(); // order comes from the due instants
        assert_eq!(grouped_percentile(&samples, 99.0), 16);
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        assert!(percentile(&mut all, 99.0) > 1000);
        // Too few samples to split: the whole set's percentile.
        assert_eq!(grouped_percentile(&samples[..50], 50.0), 13);
    }

    #[test]
    fn span_rate_counts_bytes_after_the_first_sample() {
        let t0 = Instant::now();
        // 100 B every 10 ms: 10,000 B/s, whatever the first sample's size.
        let mut samples: Vec<(Instant, u64)> = (0..900)
            .map(|i| (t0 + Duration::from_millis(10 * i), 100))
            .collect();
        samples[0].1 = 1_000_000;
        let rate = span_rate(&samples);
        assert!((rate - 10_000.0).abs() < 1.0, "{rate}");
        assert!(span_rate(&samples[..1]).is_nan());
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(process_threads() >= 1);
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 50 {}
        assert!(process_cpu_secs() > 0.0);
    }
}
