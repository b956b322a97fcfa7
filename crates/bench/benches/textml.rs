//! The text-ML hot path: lazy-scaled sparse SGD, zero-copy featurization,
//! and parallel ensemble training versus the retained pre-optimization
//! reference implementations (`asdb-textml`'s `dense-ref` feature).
//!
//! The main writes `BENCH_textml.json` at the workspace root with median
//! wall times for each before/after pair so the perf trajectory is
//! machine-diffable (see `perf/README.md`), and prints the same summary.

use asdb_bench::median_ns;
use asdb_model::WorldSeed;
use asdb_textml::pipeline::PipelineConfig;
use asdb_textml::sgd::{dense_ref, SgdClassifier, SgdConfig, SgdEnsemble};
use asdb_textml::vectorize::VectorizerConfig;
use asdb_textml::{CountVectorizer, SparseVec, TextPipeline, TfidfTransformer};
use std::hint::black_box;

/// Corpus scale from the acceptance criteria: ~2k docs over a ~20k-word
/// vocabulary, averaged logistic SGD, 20 epochs.
const N_DOCS: usize = 2_000;
const VOCAB: usize = 20_000;
const DOC_LEN: usize = 60;

/// Deterministic xorshift64* so the corpus is identical across runs and
/// does not depend on the `rand` crate's stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// Synthetic corpus: near-uniform draws over the vocabulary (so ~all of it
/// survives df filtering) with a label-correlated skew in the first 1000
/// words, which keeps the learning problem non-degenerate.
fn corpus() -> (Vec<String>, Vec<bool>) {
    let mut rng = XorShift(0x5DEECE66D);
    let mut docs = Vec::with_capacity(N_DOCS);
    let mut labels = Vec::with_capacity(N_DOCS);
    for d in 0..N_DOCS {
        let label = d % 2 == 0;
        let mut words = Vec::with_capacity(DOC_LEN);
        for _ in 0..DOC_LEN {
            let w = if label && rng.next() % 5 == 0 {
                (rng.next() % 1_000) as usize
            } else {
                (rng.next() % VOCAB as u64) as usize
            };
            words.push(format!("w{w:05}"));
        }
        docs.push(words.join(" "));
        labels.push(label);
    }
    (docs, labels)
}

struct TrainSetup {
    features: Vec<SparseVec>,
    labels: Vec<bool>,
    n_features: usize,
    config: SgdConfig,
}

fn train_setup(docs: &[&str], labels: &[bool]) -> TrainSetup {
    let mut vectorizer = CountVectorizer::new(VectorizerConfig {
        max_features: VOCAB,
        min_df: 1,
        max_df_ratio: 1.0,
    });
    let counts = vectorizer.fit_transform(docs);
    let (_, features) = TfidfTransformer::fit_transform(&counts);
    TrainSetup {
        features,
        labels: labels.to_vec(),
        n_features: vectorizer.vocab_len(),
        config: SgdConfig::default(), // averaged logistic SGD, 20 epochs
    }
}

fn main() {
    let (docs, labels) = corpus();
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
    let setup = train_setup(&doc_refs, &labels);
    let seed = WorldSeed::new(20211102);
    let mut cfg = PipelineConfig::asdb_default();
    cfg.vectorizer.min_df = 1;
    let pipe = TextPipeline::fit(&doc_refs, &labels, cfg, seed);
    write_textml_json(&setup, &pipe, &doc_refs, seed);
}

/// Machine-readable before/after summary, written to the workspace root and
/// printed.
fn write_textml_json(setup: &TrainSetup, pipe: &TextPipeline, docs: &[&str], seed: WorldSeed) {
    const TRAIN_RUNS: usize = 5;
    const PREDICT_RUNS: usize = 7;
    let nnz: usize = setup.features.iter().map(SparseVec::nnz).sum();

    let train_dense = median_ns(TRAIN_RUNS, || {
        black_box(dense_ref::fit_dense(
            &setup.features,
            &setup.labels,
            setup.n_features,
            setup.config.clone(),
            seed,
        ));
    });
    let train_lazy = median_ns(TRAIN_RUNS, || {
        black_box(SgdClassifier::fit(
            &setup.features,
            &setup.labels,
            setup.n_features,
            setup.config.clone(),
            seed,
        ));
    });
    let ens_serial_dense = median_ns(TRAIN_RUNS, || {
        for i in 0..3u64 {
            black_box(dense_ref::fit_dense(
                &setup.features,
                &setup.labels,
                setup.n_features,
                setup.config.clone(),
                seed.derive_index("sgd-member", i),
            ));
        }
    });
    let ens_parallel_lazy = median_ns(TRAIN_RUNS, || {
        black_box(SgdEnsemble::fit(
            &setup.features,
            &setup.labels,
            setup.n_features,
            setup.config.clone(),
            seed,
            3,
        ));
    });
    let predict_naive = median_ns(PREDICT_RUNS, || {
        for d in docs {
            black_box(
                pipe.ensemble()
                    .predict_proba(&pipe.featurizer().featurize_naive(d)),
            );
        }
    });
    let predict_fast = median_ns(PREDICT_RUNS, || {
        for d in docs {
            black_box(pipe.predict_proba(d));
        }
    });

    let ratio = |before: u128, after: u128| before as f64 / after.max(1) as f64;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"textml\",\n",
            "  \"docs\": {docs}, \"vocab\": {vocab}, \"nnz_total\": {nnz},\n",
            "  \"sgd\": \"averaged logistic, 20 epochs\",\n",
            "  \"train_runs\": {train_runs}, \"predict_runs\": {predict_runs},\n",
            "  \"arms\": [\n",
            "    {{\"name\": \"textml_train_dense_ref\", \"median_ns\": {td}}},\n",
            "    {{\"name\": \"textml_train_lazy\", \"median_ns\": {tl}}},\n",
            "    {{\"name\": \"textml_train_ensemble3_serial_dense\", \"median_ns\": {esd}}},\n",
            "    {{\"name\": \"textml_train_ensemble3_parallel_lazy\", \"median_ns\": {epl}}},\n",
            "    {{\"name\": \"textml_predict_naive_ref_2k_docs\", \"median_ns\": {pn}}},\n",
            "    {{\"name\": \"textml_predict_zero_copy_2k_docs\", \"median_ns\": {pf}}}\n",
            "  ],\n",
            "  \"speedup\": {{\n",
            "    \"textml_train\": {strain:.2},\n",
            "    \"textml_train_ensemble3\": {sens:.2},\n",
            "    \"textml_predict\": {spred:.2}\n",
            "  }}\n",
            "}}\n",
        ),
        docs = docs.len(),
        vocab = setup.n_features,
        nnz = nnz,
        train_runs = TRAIN_RUNS,
        predict_runs = PREDICT_RUNS,
        td = train_dense,
        tl = train_lazy,
        esd = ens_serial_dense,
        epl = ens_parallel_lazy,
        pn = predict_naive,
        pf = predict_fast,
        strain = ratio(train_dense, train_lazy),
        sens = ratio(ens_serial_dense, ens_parallel_lazy),
        spred = ratio(predict_naive, predict_fast),
    );
    print!("{json}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_textml.json");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not write {path}: {e}");
    }
}
