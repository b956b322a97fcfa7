//! Pinned label digests: the labels `classify_batch` and
//! `classify_batch_cached` emit for fixed worlds, hashed and committed, so any change to what the pipeline
//! outputs — a scoring constant, a search that returns another entry, a
//! consensus rule — fails here even when the accuracy floors elsewhere
//! still pass. A change that is meant to move labels updates the pins in
//! the same commit and says why.
//!
//! The hash is a hand-written FNV-1a over an explicit byte encoding
//! (`DefaultHasher` is not stable across Rust releases). It covers every
//! record's ASN, categories, stage, contributing sources, chosen domain,
//! the ML classifier's hard verdicts and the per-source match labels; raw
//! f32 probabilities are left out. The Table 8 stage counts and the
//! per-source outcome counters of the same run are pinned beside it.
//!
//! Every run uses 2 threads. The cached pins were computed at 1 thread:
//! the cached batch's output does not depend on the thread count.

use asdb_core::batch::{classify_batch, classify_batch_cached};
use asdb_core::{AsdbSystem, Classification, Stage};
use asdb_model::WorldSeed;
use asdb_rir::ParsedWhois;
use asdb_sources::SourceId;
use asdb_taxonomy::CategorySet;
use asdb_worldgen::{World, WorldConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A string and a terminator no UTF-8 text contains, so adjacent
    /// fields cannot run into each other.
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    fn categories(&mut self, set: &CategorySet) {
        self.u64(set.len() as u64);
        for c in set.iter() {
            self.str(c.layer1.slug());
            self.str(c.layer2.map_or("", |l2| l2.name()));
        }
    }

    fn sources(&mut self, sources: &[SourceId]) {
        self.u64(sources.len() as u64);
        for s in sources {
            self.str(s.name());
        }
    }

    fn classification(&mut self, c: &Classification) {
        self.u64(u64::from(c.asn.value()));
        self.categories(&c.categories);
        self.str(c.stage.label());
        self.sources(&c.sources);
        self.sources(&c.degraded);
        match &c.chosen_domain {
            Some(d) => self.str(&d.to_string()),
            None => self.bytes(&[0xfe]),
        }
        match &c.ml {
            Some(v) => self.bytes(&[1, u8::from(v.is_isp()), u8::from(v.is_hosting())]),
            None => self.bytes(&[0]),
        }
        self.u64(c.match_labels.len() as u64);
        for (s, set) in &c.match_labels {
            self.str(s.name());
            self.categories(set);
        }
    }
}

/// What one pinned run produced: the label digest, the Table 8 stage
/// counts in [`Stage::ALL`] order, and per source in
/// [`SourceId::ASDB_FIVE`] order its `[queries, matches, rejects,
/// no_match, timeouts, failures]` counters.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    digest: u64,
    stages: [u64; Stage::ALL.len()],
    sources: [[u64; 6]; SourceId::ASDB_FIVE.len()],
}

fn run(config: WorldConfig) -> Pinned {
    run_batch(config, classify_batch)
}

/// [`run`] with another batch entry point.
fn run_batch(
    config: WorldConfig,
    batch: fn(&AsdbSystem, &[ParsedWhois], usize) -> Vec<Classification>,
) -> Pinned {
    let seed = config.seed;
    let world = World::generate(config);
    let system = AsdbSystem::build(&world, seed.derive("system"));
    let records: Vec<_> = world.ases.iter().map(|r| r.parsed.clone()).collect();
    let out = batch(&system, &records, 2);
    let mut h = Fnv::new();
    h.u64(out.len() as u64);
    for c in &out {
        h.classification(c);
    }
    let metrics = system.metrics();
    let stages = metrics.stage_counts().map(|(_, n)| n);
    assert_eq!(stages.iter().sum::<u64>(), out.len() as u64, "Table 8 rows");
    let snap = system.metrics_snapshot();
    let sources = SourceId::ASDB_FIVE.map(|id| {
        let slug = match id {
            SourceId::Dnb => "dnb",
            SourceId::Crunchbase => "crunchbase",
            SourceId::Zvelo => "zvelo",
            SourceId::PeeringDb => "peeringdb",
            SourceId::Ipinfo => "ipinfo",
            other => panic!("{other} is not one of ASdb's five sources"),
        };
        let c = [
            "queries", "matches", "rejects", "no_match", "timeouts", "failures",
        ]
        .map(|what| snap.counter(&format!("source.{slug}.{what}")));
        assert_eq!(
            c[0],
            c[1..].iter().sum::<u64>(),
            "outcome accounting, {slug}"
        );
        c
    });
    Pinned {
        digest: h.0,
        stages,
        sources,
    }
}

#[test]
fn standard_world_labels_match_the_pinned_digest() {
    let got = run(WorldConfig::standard(WorldSeed::new(1)));
    assert_eq!(
        got,
        Pinned {
            digest: 13_721_565_492_826_566_487,
            stages: [0, 540, 1288, 34, 432, 1804, 439],
            sources: [
                [3997, 3518, 396, 83, 0, 0],
                [3997, 1830, 1226, 941, 0, 0],
                [3997, 2834, 0, 1163, 0, 0],
                [4537, 726, 0, 3811, 0, 0],
                [4537, 1245, 117, 3175, 0, 0],
            ],
        }
    );
}

#[test]
fn small_world_labels_match_the_pinned_digests() {
    let got = [2, 3].map(|seed| run(WorldConfig::small(WorldSeed::new(seed))));
    assert_eq!(
        got,
        [
            Pinned {
                digest: 15_219_477_629_325_478_266,
                stages: [0, 42, 80, 6, 50, 144, 24],
                sources: [
                    [304, 257, 22, 25, 0, 0],
                    [304, 111, 16, 177, 0, 0],
                    [304, 217, 0, 87, 0, 0],
                    [346, 59, 0, 287, 0, 0],
                    [346, 92, 9, 245, 0, 0],
                ],
            },
            Pinned {
                digest: 15_665_660_081_884_977_039,
                stages: [0, 44, 82, 3, 55, 137, 18],
                sources: [
                    [295, 242, 23, 30, 0, 0],
                    [295, 111, 13, 171, 0, 0],
                    [295, 203, 0, 92, 0, 0],
                    [339, 57, 0, 282, 0, 0],
                    [339, 92, 7, 240, 0, 0],
                ],
            },
        ]
    );
}

#[test]
fn standard_world_cached_labels_match_the_pinned_digests() {
    let got = [1, 2, 3].map(|seed| {
        run_batch(
            WorldConfig::standard(WorldSeed::new(seed)),
            classify_batch_cached,
        )
    });
    assert_eq!(
        got,
        [
            Pinned {
                digest: 12_689_924_408_348_668_447,
                stages: [612, 456, 1079, 28, 377, 1582, 403],
                sources: [
                    [3469, 3052, 342, 75, 0, 0],
                    [3469, 1620, 1020, 829, 0, 0],
                    [3469, 2412, 0, 1057, 0, 0],
                    [3925, 619, 0, 3306, 0, 0],
                    [3925, 1080, 101, 2744, 0, 0],
                ],
            },
            Pinned {
                digest: 13_417_597_495_297_600_324,
                stages: [586, 408, 985, 33, 369, 1724, 406],
                sources: [
                    [3517, 3069, 374, 74, 0, 0],
                    [3517, 1662, 981, 874, 0, 0],
                    [3517, 2416, 0, 1101, 0, 0],
                    [3925, 589, 0, 3336, 0, 0],
                    [3925, 1050, 92, 2783, 0, 0],
                ],
            },
            Pinned {
                digest: 16_136_480_542_546_989_151,
                stages: [624, 431, 1094, 27, 332, 1690, 352],
                sources: [
                    [3495, 3060, 359, 76, 0, 0],
                    [3495, 1571, 1069, 855, 0, 0],
                    [3495, 2496, 0, 999, 0, 0],
                    [3926, 590, 0, 3336, 0, 0],
                    [3926, 1098, 76, 2752, 0, 0],
                ],
            },
        ]
    );
}
