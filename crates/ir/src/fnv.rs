//! FNV-1a 64, the one content hash of the workspace: cache keys and disk
//! filenames (`asdf-core`), artifact checksums (`asdf-artifact`), and
//! state-vector digests (`asdf-sim`). Deterministic across runs and
//! platforms, dependency-free, and cheap on the short inputs it sees.

/// Streaming FNV-1a 64-bit hasher.
#[derive(Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The standard FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes one byte slice with FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv::new();
        h.write(b"qp");
        h.write(b"u");
        assert_eq!(h.finish(), fnv1a(b"qpu"));
        assert_ne!(fnv1a(b"qpu"), fnv1a(b"qpv"));
    }
}
