//! Pinned world digests: every AS's rendered WHOIS and its parsed
//! record, and every organization's website, hashed for the standard
//! worlds of seeds 1–3 and committed. A change to how the world is
//! generated — which draws it makes, in which order, or which thread
//! renders what — that moves one byte of a WHOIS dump or a page fails
//! here before it can move a label.
//!
//! The hash is a hand-written FNV-1a over an explicit byte encoding
//! (`DefaultHasher` is not stable across Rust releases, and `Debug` output
//! is not a format). It covers, in AS order, each AS's
//! `write_dump` text of its `dialect::serialize` rendering and every field
//! of its `ParsedWhois`; then, in organization order, each organization's
//! domain, how its root page answers, and each hosted page's path and
//! markup. The AS, site and page counts are pinned beside it.

use asdb_model::{Domain, WorldSeed};
use asdb_rir::dialect;
use asdb_rir::dump::write_dump;
use asdb_rir::extract::NameSource;
use asdb_rir::ParsedWhois;
use asdb_websim::{FetchError, Fetcher};
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

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.bytes(&[1]);
                self.str(s);
            }
            None => self.bytes(&[0]),
        }
    }

    fn parsed(&mut self, p: &ParsedWhois) {
        self.u64(u64::from(p.asn.value()));
        self.str(p.rir.name());
        self.str(&p.name);
        self.bytes(&[match p.name_source {
            NameSource::OrgName => 0,
            NameSource::Description => 1,
            NameSource::AsName => 2,
        }]);
        self.str(&p.as_name);
        self.opt_str(p.address.as_deref());
        self.opt_str(p.phone.as_deref());
        self.opt_str(p.country.as_ref().map(|c| c.as_str()));
        self.u64(p.emails.len() as u64);
        for e in &p.emails {
            self.str(&e.to_string());
        }
        self.u64(p.urls.len() as u64);
        for u in &p.urls {
            self.str(&u.to_string());
        }
    }
}

/// What one pinned world produced.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    digest: u64,
    ases: usize,
    sites: usize,
    pages: usize,
}

fn digest(seed: u64) -> Pinned {
    let world = World::generate(WorldConfig::standard(WorldSeed::new(seed)));
    let mut h = Fnv::new();
    h.u64(world.ases.len() as u64);
    for rec in &world.ases {
        h.str(&write_dump(&[dialect::serialize(
            rec.rir,
            &rec.registration,
        )]));
        h.parsed(&rec.parsed);
    }
    let mut pages = 0;
    h.u64(world.orgs.len() as u64);
    for org in &world.orgs {
        let Some(domain) = &org.domain else {
            h.bytes(&[0]);
            continue;
        };
        h.str(domain.as_str());
        h.bytes(&[root_answer(&world, domain)]);
        if let Some(site) = world.web.site(domain) {
            h.u64(site.pages.len() as u64);
            for (path, markup) in &site.pages {
                h.str(path);
                h.str(markup);
            }
            pages += site.pages.len();
        }
    }
    Pinned {
        digest: h.0,
        ases: world.ases.len(),
        sites: world.web.len(),
        pages,
    }
}

/// How the domain's root page answers: one byte per outcome.
fn root_answer(world: &World, domain: &Domain) -> u8 {
    match world.web.fetch(domain, "/") {
        Ok(_) => 1,
        Err(FetchError::Unreachable) => 2,
        Err(FetchError::NoSuchHost) => 3,
        Err(FetchError::NotFound) => 4,
    }
}

#[test]
fn standard_worlds_match_the_pinned_digests() {
    let got = [1, 2, 3].map(digest);
    assert_eq!(
        got,
        [
            Pinned {
                digest: 11_815_402_088_937_502_083,
                ases: 4_537,
                sites: 3_245,
                pages: 16_958,
            },
            Pinned {
                digest: 4_241_494_416_545_909_527,
                ases: 4_511,
                sites: 3_268,
                pages: 17_037,
            },
            Pinned {
                digest: 9_603_576_141_181_275_261,
                ases: 4_550,
                sites: 3_267,
                pages: 17_134,
            },
        ]
    );
}
