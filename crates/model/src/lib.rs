//! # asdb-model
//!
//! Shared domain types for the ASdb reproduction.
//!
//! This crate holds the vocabulary every other crate speaks: autonomous
//! system numbers ([`Asn`]), organization identities ([`OrgId`]), DNS
//! [`Domain`]s and [`Url`]s, [`Email`] addresses, ISO-style country codes,
//! the five Regional Internet Registries ([`Rir`]), Dun & Bradstreet style
//! match [`ConfidenceCode`]s, simple calendar [`Date`]s for churn modeling,
//! and the deterministic [`WorldSeed`] from which all randomness in the
//! workspace is derived. [`hash`] holds the fast hasher of the read-only
//! word tables.
//!
//! Design notes (following the networking-Rust guides this repo is built
//! against): types are small, `Copy` where possible, validate on
//! construction, and implement `Display`/`FromStr` round-trips so they can
//! be used directly in wire formats such as the WHOIS dumps produced by
//! `asdb-rir`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod confidence;
pub mod country;
pub mod date;
pub mod domain;
pub mod error;
pub mod hash;
pub mod org;
pub mod registry;
pub mod seed;

pub use asn::Asn;
pub use confidence::ConfidenceCode;
pub use country::CountryCode;
pub use date::Date;
pub use domain::{Domain, Email, Url};
pub use error::ModelError;
pub use hash::{FxBuildHasher, FxHashMap};
pub use org::{OrgId, OrgName};
pub use registry::Rir;
pub use seed::{splitmix64, WorldSeed};
