//! # asdb-entity
//!
//! Entity resolution: the machinery for deciding *which organization* a
//! pile of messy WHOIS strings refers to.
//!
//! "Scaling requires both access to the full business datasets and
//! developing an automated method for looking up organizations" (§3.5).
//! The two halves implemented here:
//!
//! * [`similarity`]: string similarity primitives — Jaro, Jaro–Winkler,
//!   token-set Jaccard, and the combined name-similarity score used
//!   everywhere a "most similar" decision is made;
//! * [`domain_select`]: the §5.1 domain-extraction algorithm — pool
//!   candidate domains from RIR metadata and ASN-queryable sources, strip
//!   public email providers, apply the <100-ASes commonality filter, then
//!   pick by one of the three evaluated strategies (random / least common /
//!   most similar), where "most similar" compares the website's homepage
//!   title (or, for unreachable sites, the domain itself) against the AS
//!   name (Table 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain_select;
pub mod similarity;

pub use domain_select::{select_domain, DomainCandidates, DomainStrategy};
pub use similarity::{jaro, jaro_winkler, name_similarity, token_jaccard, NormName};
