//! Differential test of §5.1's `homepage_title`, which reads only the
//! title span of a homepage (`asdb_websim::html::title`), against the
//! title of the owned page parser it replaced, kept as the oracle in
//! `asdb-websim`'s test support. It runs over every candidate domain of
//! every AS (WHOIS emails and URLs) and every organization domain (the
//! ones IPinfo offers) of three standard worlds, live, unreachable and
//! unknown hosts alike.

#[path = "../../websim/tests/common/mod.rs"]
mod common;

use asdb_entity::domain_select::homepage_title;
use asdb_model::WorldSeed;
use asdb_websim::Fetcher;
use asdb_worldgen::{World, WorldConfig};
use std::collections::BTreeSet;

#[test]
fn homepage_title_matches_oracle_on_every_candidate_domain() {
    for s in 1..=3 {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(s)));
        let candidates: BTreeSet<_> = w
            .ases
            .iter()
            .flat_map(|rec| rec.parsed.candidate_domains())
            .chain(w.orgs.iter().filter_map(|o| o.domain.clone()))
            .collect();
        let mut titled = 0usize;
        for d in &candidates {
            let want = w
                .web
                .fetch(d, "/")
                .ok()
                .map(|f| common::old::parse(&f.markup).title)
                .filter(|t| !t.is_empty());
            let got = homepage_title(&w.web, d);
            titled += usize::from(got.is_some());
            assert_eq!(got, want, "seed {s}, {d}");
        }
        assert!(titled > 2_000, "seed {s}: only {titled} titled homepages");
        assert!(
            candidates.len() > titled + 100,
            "seed {s}: {} candidates, {titled} titled",
            candidates.len()
        );
    }
}
