//! A fast hasher for read-only word tables.
//!
//! std's `HashMap` defaults to SipHash-1-3 with random keys, which resists
//! HashDoS but costs more than a multiply-rotate hash on the short
//! words a page is made of. [`FxHasher`] is the Fx hash (rustc's): each
//! word of input is folded in with a rotate, an xor and a multiply. It has
//! no key, so inputs can be chosen to collide: use it only for tables
//! whose keys are fixed when they are built (a fitted vocabulary, a
//! category word list, a registry's name tokens, a world's hosts) and
//! only probed with outside text, so the longest probe is set by the
//! table's own layout. A map that inserts words from scraped pages keeps
//! std's `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash: `hash = (hash.rotate_left(5) ^ word) * K` per word of
/// input, eight bytes at a time and then four, two and one.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// The Fx multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let mut rest = chunks.remainder();
        if let Some((c, r)) = rest.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*c)));
            rest = r;
        }
        if let Some((c, r)) = rest.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*c)));
            rest = r;
        }
        if let Some(&b) = rest.first() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`], for read-only word tables.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Hashes computed apart from this code (a few lines of Python
    /// following the definition), covering the full eight-byte word, each
    /// tail length and the `0xff` a `str` hash ends with.
    #[test]
    fn known_answers() {
        let h = |s: &str| FxBuildHasher::default().hash_one(s);
        assert_eq!(h(""), 0x2b44_f56f_fae8_8a6b);
        assert_eq!(h("a"), 0xaa44_c3c5_b8e2_2aff);
        assert_eq!(h("fiber"), 0x168e_3360_3945_7d67);
        assert_eq!(h("hosting"), 0x7465_14da_c220_32cf);
        assert_eq!(h("datacenter"), 0x2052_4d05_4f2b_5962);
        assert_eq!(h("telecommunications"), 0xaeef_b13f_ec91_6ceb);
        let mut fx = FxHasher::default();
        fx.write_u32(7);
        fx.write_u64(1 << 40);
        assert_eq!(fx.finish(), 0x713c_ce71_5569_abf3);
    }

    #[test]
    fn equal_words_hash_equal_and_maps_work() {
        let owned = String::from("network");
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one("network"), b.hash_one(&owned));
        let map: FxHashMap<String, u32> = [("isp", 0), ("hosting", 1)]
            .into_iter()
            .map(|(w, i)| (w.to_owned(), i))
            .collect();
        assert_eq!(map.get("hosting"), Some(&1));
        assert_eq!(map.get("cloud"), None);
    }
}
