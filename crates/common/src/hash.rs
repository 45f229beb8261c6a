//! Stable hashing (FNV-1a 64).
//!
//! Every hash that leaves the process — snapshot fingerprints and shard
//! indices, quarantine fingerprints, per-site chaos streams — goes
//! through [`Fnv64`]. Unlike `DefaultHasher`, which is free to change
//! and is seeded per process, it is stable across processes, platforms,
//! and toolchain releases.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    pub fn write_str(&mut self, s: &str) -> &mut Self {
        // Length prefix keeps concatenated fields unambiguous.
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone, with no length prefix.
    pub fn of(bytes: &[u8]) -> u64 {
        Fnv64::new().write(bytes).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Golden values: the hash must never change across releases, or
        // every snapshot, quarantine file and chaos replay in the field
        // would silently stop matching.
        assert_eq!(Fnv64::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().write_str("a").finish(),
            Fnv64::new().write_u64(1).write(b"a").finish()
        );
    }
}
