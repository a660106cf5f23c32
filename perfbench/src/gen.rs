//! Seeded inputs: routing keys, key skew, payload bytes and the payload
//! header the reader checks. Everything derives from the `--seed` argument;
//! the cluster only ever sees the generated events.

use bytes::{BufMut, Bytes, BytesMut};

/// splitmix64: a tiny, well-mixed generator, so the benchmark needs no
/// random-number crate and a seed always yields the same stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian choice over `n` keys (exponent 1): key 0 is the hottest.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Which part of a run an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Written during set-up to complete the client handshakes.
    Warmup = 0,
    /// Large events: the `bulk_large` ingest and the `catchup_replay`
    /// backlog.
    Bulk = 1,
    /// Small events on a schedule, whose delivery latency the tail reader
    /// measures.
    Tail = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Option<Phase> {
        match v {
            0 => Some(Phase::Warmup),
            1 => Some(Phase::Bulk),
            2 => Some(Phase::Tail),
            _ => None,
        }
    }
}

/// Fixed header at the front of every payload:
/// `[u8 phase][u8 0][u16 key][u32 key_seq][u64 seq][u64 due_nanos][u32 len]`.
pub const HEADER_BYTES: usize = 28;

/// What the reader recovers from a payload it has checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub phase: Phase,
    pub key: u16,
    /// Position of this event among its key's events (per-key order).
    pub key_seq: u32,
    /// Run-wide event number (exactly-once bookkeeping).
    pub seq: u64,
    /// When the event was due to be sent, in nanoseconds since the run's
    /// origin: latency is measured from here, not from the actual send.
    pub due_nanos: u64,
}

/// Source of every payload's filler bytes: one seeded pool, from which each
/// event takes a window at a seeded offset. Building and checking a payload
/// then costs a copy and a compare, which keeps the generator's CPU small
/// next to the system's.
#[derive(Debug)]
pub struct PayloadPool {
    pool: Vec<u8>,
    seed: u64,
}

const POOL_BYTES: usize = 1 << 20;

impl PayloadPool {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5EED_B17E);
        let mut pool = Vec::with_capacity(POOL_BYTES + 8);
        while pool.len() < POOL_BYTES {
            pool.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        PayloadPool { pool, seed }
    }

    fn filler(&self, seq: u64, len: usize) -> &[u8] {
        let span = self.pool.len() - len;
        let off = (Rng::new(self.seed ^ seq.rotate_left(17)).next_u64() % span as u64) as usize;
        &self.pool[off..off + len]
    }

    /// Builds the payload of event `h.seq`, `len` bytes long in total.
    pub fn build(&self, h: &Header, len: usize) -> Bytes {
        assert!(len >= HEADER_BYTES && len - HEADER_BYTES < POOL_BYTES);
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u8(h.phase as u8);
        buf.put_u8(0);
        buf.put_u16(h.key);
        buf.put_u32(h.key_seq);
        buf.put_u64(h.seq);
        buf.put_u64(h.due_nanos);
        buf.put_u32(len as u32);
        buf.put_slice(self.filler(h.seq, len - HEADER_BYTES));
        buf.freeze()
    }

    /// Parses and checks a payload read back: the header must be well
    /// formed and the filler must be exactly the bytes the seed gives.
    pub fn check(&self, payload: &[u8]) -> Result<Header, String> {
        if payload.len() < HEADER_BYTES {
            return Err(format!("payload of {} bytes is too short", payload.len()));
        }
        let u32_at = |i: usize| u32::from_be_bytes(payload[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_be_bytes(payload[i..i + 8].try_into().unwrap());
        let phase = Phase::from_u8(payload[0]).ok_or("unknown phase byte")?;
        let h = Header {
            phase,
            key: u16::from_be_bytes([payload[2], payload[3]]),
            key_seq: u32_at(4),
            seq: u64_at(8),
            due_nanos: u64_at(16),
        };
        let len = u32_at(24) as usize;
        if len != payload.len() {
            return Err(format!(
                "event {}: length {} but header says {len}",
                h.seq,
                payload.len()
            ));
        }
        if payload[HEADER_BYTES..] != *self.filler(h.seq, len - HEADER_BYTES) {
            return Err(format!(
                "event {}: payload bytes differ from the seed's",
                h.seq
            ));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_payloads_round_trip() {
        let (a, b) = (PayloadPool::new(7), PayloadPool::new(7));
        let h = Header {
            phase: Phase::Tail,
            key: 3,
            key_seq: 9,
            seq: 12345,
            due_nanos: 777,
        };
        let p = a.build(&h, 100);
        assert_eq!(p, b.build(&h, 100));
        assert_eq!(b.check(&p), Ok(h));
        let mut bad = p.to_vec();
        bad[60] ^= 1;
        assert!(b.check(&bad).is_err());
        assert!(PayloadPool::new(8).check(&p).is_err());
    }

    #[test]
    fn zipf_is_skewed_toward_low_keys() {
        let z = Zipf::new(1000);
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hits > 3000, "{hits}");
    }
}
