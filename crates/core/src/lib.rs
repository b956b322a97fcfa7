//! # asdb-core
//!
//! The ASdb system (§5): "a system that uses existing data sources and
//! machine learning to create and maintain a dataset of autonomous systems,
//! their owners, and their industries."
//!
//! The crate implements the full Figure 4 architecture:
//!
//! 1. **Cache check** — "ASdb checks if the owning organization has
//!    previously been classified … and, if so, returns the cached data";
//! 2. **Match by ASN** — PeeringDB and IPinfo; "if a high confidence match
//!    occurs (i.e., only if PeeringDB returns an ISP label)" the pipeline
//!    exits early;
//! 3. **Most-likely-domain selection** — the §5.1 algorithm over RIR
//!    metadata plus ASN-queryable source domains;
//! 4. **ML classification** — the Figure 3 scrape → translate → TF-IDF →
//!    SGD pipeline for ISP/hosting detection ([`classifier`]);
//! 5. **Data-source matching** — D&B, Crunchbase, Zvelo, with entity-
//!    disagreement rejection ("ASdb rejects matches where the data source
//!    provides a domain that does not match ASdb's chosen domain");
//! 6. **Consensus / auto-choose** — agreeing sources' union, otherwise the
//!    source with the best §5.1 accuracy rank.
//!
//! Plus the operational half the paper only sketches: an organization
//! [`cache`], work-stealing [`batch`] classification across threads (its
//! cached output equal at every thread count), the §5.3 [`maintain`] loop over
//! registration churn, the public [`dataset`] dump format, and on-by-default
//! [`metrics`] — per-stage counters mirroring Table 8, per-source hit
//! rates, cache reuse, scheduler chunk/steal counts, and
//! latency histograms, snapshot-able as text or JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod classifier;
pub mod dataset;
pub mod maintain;
pub mod metrics;
pub mod pipeline;
pub mod sources_set;

pub use batch::BatchConfig;
pub use cache::{OrgCache, OrgKey};
pub use classifier::{MlClassifiers, MlVerdict};
pub use metrics::PipelineMetrics;
pub use pipeline::{AsdbSystem, Classification, Stage};
pub use sources_set::{FanoutOutcome, MatchPolicy, SourceFanout, SourceSet, Stage1};
