//! Synthetic AS-level routing topology.
//!
//! The paper's related work includes a whole lineage of *topology-based* AS
//! classification (Dhamdhere & Dovrolis infer "enterprise customers, small
//! and large transit providers, access/hosting providers, and content
//! providers" from topological properties with 76–82% accuracy, §2). To
//! reproduce that comparison we need a routing substrate: a
//! customer-provider / peering graph with the Internet's familiar
//! three-tier shape.
//!
//! Generation follows the standard hierarchy: a handful of fully-meshed
//! tier-1 transit ASes at the top (the largest ISP organizations), regional
//! tier-2 transits buying from several tier-1s and peering laterally,
//! content/hosting ASes peering widely but selling no transit, and a long
//! tail of stub/enterprise ASes buying from one or two providers.

use crate::org::AsRecord;
use crate::world::World;
use asdb_model::{Asn, WorldSeed};
use asdb_taxonomy::naicslite::known;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// Business relationship on an inter-AS link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkType {
    /// `a` is the provider of `b` (customer-provider edge, stored as
    /// provider → customer).
    ProviderCustomer,
    /// Settlement-free peering.
    Peer,
}

/// The role the generator assigned an AS (hidden from the inference
/// baseline; used only for evaluation of the generator itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyRole {
    /// Global transit (tier 1).
    Tier1,
    /// Regional transit (tier 2).
    Tier2,
    /// Access/eyeball network: buys transit, has customers only of the
    /// stub kind.
    Access,
    /// Content/hosting: peers widely, no customers.
    Content,
    /// Stub/enterprise leaf.
    Stub,
}

/// An AS-level graph with relationship-typed edges.
#[derive(Debug, Clone, Default)]
pub struct AsGraph {
    providers: HashMap<Asn, Vec<Asn>>,
    customers: HashMap<Asn, Vec<Asn>>,
    peers: HashMap<Asn, Vec<Asn>>,
    roles: HashMap<Asn, TopologyRole>,
}

impl AsGraph {
    /// Generate a topology over a world's ASes.
    pub fn generate(world: &World, seed: WorldSeed) -> AsGraph {
        let mut rng = StdRng::seed_from_u64(seed.derive("topology").value());
        let mut g = AsGraph::default();

        // Partition the ASes by role, driven by the owning organization.
        let mut tier1: Vec<Asn> = Vec::new();
        let mut tier2: Vec<Asn> = Vec::new();
        let mut access: Vec<Asn> = Vec::new();
        let mut content: Vec<Asn> = Vec::new();
        let mut stubs: Vec<Asn> = Vec::new();

        // Rank ISP ASes by the owner's size; the biggest become transit.
        let mut isp_ases: Vec<(&AsRecord, u32)> = world
            .ases
            .iter()
            .filter_map(|rec| {
                let org = world.org(rec.org)?;
                let is_net =
                    org.truth().layer2s().contains(&known::isp()) || org.category == known::ixp();
                is_net.then_some((rec, org.employees))
            })
            .collect();
        isp_ases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.asn.cmp(&b.0.asn)));
        let n_tier1 = (isp_ases.len() / 40).clamp(3, 12);
        let n_tier2 = (isp_ases.len() / 6).max(8);
        for (i, (rec, _)) in isp_ases.iter().enumerate() {
            if i < n_tier1 {
                tier1.push(rec.asn);
            } else if i < n_tier1 + n_tier2 {
                tier2.push(rec.asn);
            } else {
                access.push(rec.asn);
            }
        }
        for rec in &world.ases {
            let Some(org) = world.org(rec.org) else {
                continue;
            };
            let truth = org.truth();
            if truth.layer2s().contains(&known::isp()) || org.category == known::ixp() {
                continue; // already placed
            }
            if truth.layer2s().contains(&known::hosting())
                || org.category == known::search_engine()
                || org.category.layer1 == asdb_taxonomy::Layer1::Media
            {
                content.push(rec.asn);
            } else {
                stubs.push(rec.asn);
            }
        }

        for &a in &tier1 {
            g.roles.insert(a, TopologyRole::Tier1);
        }
        for &a in &tier2 {
            g.roles.insert(a, TopologyRole::Tier2);
        }
        for &a in &access {
            g.roles.insert(a, TopologyRole::Access);
        }
        for &a in &content {
            g.roles.insert(a, TopologyRole::Content);
        }
        for &a in &stubs {
            g.roles.insert(a, TopologyRole::Stub);
        }

        // Tier-1 clique.
        for i in 0..tier1.len() {
            for j in (i + 1)..tier1.len() {
                g.add_peer(tier1[i], tier1[j]);
            }
        }
        // Tier-2: 2–3 tier-1 providers, a few lateral peers.
        for &a in &tier2 {
            for p in pick(
                &tier1,
                rng.random_range(2..=3.min(tier1.len().max(1))),
                &mut rng,
            ) {
                g.add_provider(p, a);
            }
            for p in pick(&tier2, 2, &mut rng) {
                if p != a {
                    g.add_peer(a, p);
                }
            }
        }
        // Access networks: 1–3 tier-2 providers.
        for &a in &access {
            for p in pick(&tier2, rng.random_range(1..=3usize), &mut rng) {
                g.add_provider(p, a);
            }
        }
        // Content/hosting: 1–2 transit providers plus wide peering.
        for &a in &content {
            for p in pick(&tier2, rng.random_range(1..=2usize), &mut rng) {
                g.add_provider(p, a);
            }
            let n_peers = rng.random_range(3..=10usize);
            for p in pick(&tier2, n_peers / 2, &mut rng) {
                g.add_peer(a, p);
            }
            for p in pick(&access, n_peers - n_peers / 2, &mut rng) {
                g.add_peer(a, p);
            }
        }
        // Stubs: 1–2 providers drawn from tier-2 and access networks.
        let upstream_pool: Vec<Asn> = tier2.iter().chain(access.iter()).copied().collect();
        for &a in &stubs {
            let n = if rng.random_bool(0.25) { 2 } else { 1 };
            for p in pick(&upstream_pool, n, &mut rng) {
                g.add_provider(p, a);
            }
        }
        g
    }

    fn add_provider(&mut self, provider: Asn, customer: Asn) {
        if provider == customer {
            return;
        }
        self.customers.entry(provider).or_default().push(customer);
        self.providers.entry(customer).or_default().push(provider);
    }

    fn add_peer(&mut self, a: Asn, b: Asn) {
        if a == b {
            return;
        }
        self.peers.entry(a).or_default().push(b);
        self.peers.entry(b).or_default().push(a);
    }

    /// Providers of an AS.
    pub fn providers(&self, asn: Asn) -> &[Asn] {
        self.providers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Customers of an AS.
    pub fn customers(&self, asn: Asn) -> &[Asn] {
        self.customers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peers of an AS.
    pub fn peers(&self, asn: Asn) -> &[Asn] {
        self.peers.get(&asn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Size of the customer cone (the AS plus everything reachable through
    /// customer edges) — the classic transit-size statistic.
    pub fn customer_cone(&self, asn: Asn) -> usize {
        let mut seen: HashSet<Asn> = HashSet::new();
        let mut queue: VecDeque<Asn> = VecDeque::new();
        seen.insert(asn);
        queue.push_back(asn);
        while let Some(a) = queue.pop_front() {
            for &c in self.customers(a) {
                if seen.insert(c) {
                    queue.push_back(c);
                }
            }
        }
        seen.len()
    }

    /// The generator-assigned role (evaluation only).
    pub fn role(&self, asn: Asn) -> Option<TopologyRole> {
        self.roles.get(&asn).copied()
    }

    /// Number of ASes in the graph.
    pub fn len(&self) -> usize {
        self.roles.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.roles.is_empty()
    }
}

fn pick(pool: &[Asn], n: usize, rng: &mut StdRng) -> Vec<Asn> {
    if pool.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if let Some(a) = pool.choose(rng) {
            if !out.contains(a) {
                out.push(*a);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;

    fn graph() -> (World, AsGraph) {
        let w = World::generate(WorldConfig::standard(WorldSeed::new(55)));
        let g = AsGraph::generate(&w, WorldSeed::new(56));
        (w, g)
    }

    #[test]
    fn covers_every_as() {
        let (w, g) = graph();
        assert_eq!(g.len(), w.ases.len());
    }

    #[test]
    fn tier1s_have_the_largest_cones() {
        let (_, g) = graph();
        let t1_cones: Vec<usize> = g
            .roles
            .iter()
            .filter(|(_, r)| **r == TopologyRole::Tier1)
            .map(|(a, _)| g.customer_cone(*a))
            .collect();
        let stub_cones: Vec<usize> = g
            .roles
            .iter()
            .filter(|(_, r)| **r == TopologyRole::Stub)
            .take(200)
            .map(|(a, _)| g.customer_cone(*a))
            .collect();
        let t1_avg = t1_cones.iter().sum::<usize>() as f64 / t1_cones.len().max(1) as f64;
        let stub_avg = stub_cones.iter().sum::<usize>() as f64 / stub_cones.len().max(1) as f64;
        assert!(t1_avg > 50.0, "tier1 avg cone = {t1_avg}");
        assert!(stub_avg < 2.5, "stub avg cone = {stub_avg}");
    }

    #[test]
    fn stubs_have_providers_and_no_customers() {
        let (_, g) = graph();
        for (a, r) in g.roles.iter().take(2000) {
            if *r == TopologyRole::Stub {
                assert!(!g.providers(*a).is_empty(), "{a} has no provider");
                assert!(g.customers(*a).is_empty(), "{a} sells transit");
            }
        }
    }

    #[test]
    fn content_networks_peer_widely() {
        let (_, g) = graph();
        let content_peer_avg: f64 = {
            let xs: Vec<usize> = g
                .roles
                .iter()
                .filter(|(_, r)| **r == TopologyRole::Content)
                .map(|(a, _)| g.peers(*a).len())
                .collect();
            xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64
        };
        let stub_peer_avg: f64 = {
            let xs: Vec<usize> = g
                .roles
                .iter()
                .filter(|(_, r)| **r == TopologyRole::Stub)
                .map(|(a, _)| g.peers(*a).len())
                .collect();
            xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64
        };
        assert!(
            content_peer_avg > stub_peer_avg + 1.0,
            "content {content_peer_avg} vs stub {stub_peer_avg}"
        );
    }

    #[test]
    fn edges_are_symmetric() {
        let (_, g) = graph();
        for (a, peers) in g.peers.iter().take(300) {
            for p in peers {
                assert!(g.peers(*p).contains(a), "peer edge {a}-{p} asymmetric");
            }
        }
        for (p, customers) in g.customers.iter().take(300) {
            for cst in customers {
                assert!(
                    g.providers(*cst).contains(p),
                    "provider edge {p}->{cst} asymmetric"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = World::generate(WorldConfig::small(WorldSeed::new(57)));
        let a = AsGraph::generate(&w, WorldSeed::new(58));
        let b = AsGraph::generate(&w, WorldSeed::new(58));
        for rec in &w.ases {
            assert_eq!(a.providers(rec.asn), b.providers(rec.asn));
            assert_eq!(a.customers(rec.asn), b.customers(rec.asn));
            assert_eq!(a.peers(rec.asn), b.peers(rec.asn));
            assert_eq!(a.role(rec.asn), b.role(rec.asn));
        }
    }
}
