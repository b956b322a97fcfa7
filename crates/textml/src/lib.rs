//! # asdb-textml
//!
//! A from-scratch text-classification stack implementing the paper's ML
//! pipeline (Figure 3):
//!
//! > "our pipeline converts the text into a vector of word counts, and uses
//! > a TF IDF (Term Frequency Inverse Document Frequency) transformer to
//! > convert the text into features by computing the relative importance of
//! > each word found in the text. The features are then used as inputs into
//! > two Stochastic Gradient Descent classifiers — often used in text
//! > classification due to their scalability."
//!
//! Components:
//!
//! * [`tokenize`]: one byte-level, lower-casing word splitter
//!   ([`tokenize::for_each_word`]) shared by every per-page pass, and an
//!   English stopword list,
//! * [`vectorize`]: vocabulary building and sparse count vectors,
//! * [`tfidf`]: smoothed IDF weighting with L2 normalization
//!   (scikit-learn-compatible formulas, since the original pipeline is
//!   scikit-learn),
//! * [`sgd`]: binary linear classifiers trained by stochastic gradient
//!   descent (log loss, L2 regularization, iterate averaging), plus a
//!   seeded bagging [`sgd::SgdEnsemble`],
//! * [`metrics`]: accuracy, precision/recall/F1, confusion matrices, and
//!   rank-based ROC AUC,
//! * [`pipeline`]: the shared text → TF-IDF featurizer and the end-to-end
//!   text → verdict classifier; ASdb's ISP and hosting detectors are one
//!   featurizer feeding two ensembles.
//!
//! Everything is implemented directly over `Vec`/sparse pairs — no external
//! ML or linear-algebra dependencies ("thin NLP/ML ecosystem" is exactly
//! the gap this crate fills).
//!
//! The training/inference hot path is O(nnz): the SGD trainer uses lazy
//! weight scaling with lazily-materialized iterate averaging (see
//! [`sgd`]'s module docs for the math), tokenization is zero-copy
//! ([`tokenize::tokens`] to fit, [`tokenize::for_each_word`] to
//! transform: a page's words probe the vocabulary directly, which holds
//! no stopword or number to filter). Training is serial: the ensemble
//! fits its members one after another on the calling thread. The
//! pre-optimization implementations are retained in test builds as
//! differential oracles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cv;
pub mod metrics;
pub mod pipeline;
pub mod sgd;
pub mod tfidf;
pub mod tokenize;
pub mod vectorize;

pub use cv::{cross_validate, CvResult};
pub use metrics::{BinaryConfusion, Metrics};
pub use pipeline::{TextFeaturizer, TextPipeline};
pub use sgd::{SgdClassifier, SgdEnsemble};
pub use tfidf::TfidfTransformer;
pub use tokenize::{for_each_word, tokens};
pub use vectorize::{CountVectorizer, SparseVec};
