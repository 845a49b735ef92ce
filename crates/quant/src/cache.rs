//! Content fingerprints of weight sets, and the counters of the
//! deleted process-wide caches.
//!
//! [`Fingerprint`] is an FNV-1a style streaming hasher over the weight
//! *content* (geometry, raw bits, requant parameters) rather than
//! addresses, so two identical weight objects — e.g. a network and its
//! clone — digest alike. The cpu backend keys its per-session stats
//! report by it (`zskip_core::exec::cpu`). A 64-bit digest over a
//! handful of weight sets makes accidental collision probability
//! negligible (birthday bound ~n²/2⁶⁵).
//!
//! Derived artifacts (a layer's packed image, its GEMM repacks) live on
//! the weights that derive them and drop with them; no process-wide cache
//! holds them.

/// Hit / miss / residency counters. What derived artifacts there are live
/// on their weights, so nothing counts into this any more:
/// `weight_cache_stats` and `tap_cache_stats` return it all zero for the
/// benchmark harness that still reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an existing entry.
    pub hits: u64,
    /// Lookups that had to build and insert the artifact.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Approximate heap bytes held by resident artifacts.
    pub bytes: usize,
}

/// Streaming FNV-1a content hasher for weight identity.
///
/// Deliberately not `std::hash::Hasher`: the default `SipHash` keys differ
/// per process in some configurations, and weight fingerprints must be
/// stable enough to reason about in logs and tests. FNV-1a over the full
/// content is fast (one multiply per byte, word-batched below) and its
/// distribution is more than adequate for the handful of weight sets a
/// process ever sees.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Starts a fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes, 8 at a time where possible.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
            self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs one u64 (lengths, shapes, flags — anything structural).
    pub fn u64(mut self, v: u64) -> Self {
        self.state = (self.state ^ v).wrapping_mul(FNV_PRIME);
        self
    }

    /// Absorbs a slice of i64 values (bias vectors).
    pub fn i64s(mut self, vs: &[i64]) -> Self {
        for &v in vs {
            self = self.u64(v as u64);
        }
        self
    }

    /// Finishes the digest.
    pub fn finish(self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_content_sensitive_and_stable() {
        let a = Fingerprint::new().bytes(&[1, 2, 3]).u64(7).finish();
        let b = Fingerprint::new().bytes(&[1, 2, 3]).u64(7).finish();
        let c = Fingerprint::new().bytes(&[1, 2, 4]).u64(7).finish();
        let d = Fingerprint::new().bytes(&[1, 2, 3]).u64(8).finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn fingerprint_word_batching_matches_byte_order() {
        // 8-byte batching must produce the same digest for the same bytes
        // regardless of how the caller splits the stream at word edges.
        let data: Vec<u8> = (0u8..32).collect();
        let whole = Fingerprint::new().bytes(&data).finish();
        let split = Fingerprint::new().bytes(&data[..16]).bytes(&data[16..]).finish();
        assert_eq!(whole, split);
    }
}
