//! Classify the entire AS universe in parallel, dump the released dataset,
//! and print the coverage/accuracy summary — what a production ASdb run
//! looks like end to end.
//!
//! ```sh
//! cargo run --release --example classify_universe
//! ```

use asdb_core::batch::classify_batch_cached;
use asdb_core::dataset;
use asdb_core::AsdbSystem;
use asdb_model::WorldSeed;
use asdb_rir::ParsedWhois;
use asdb_worldgen::{World, WorldConfig};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let seed = WorldSeed::DEFAULT;
    let world = World::generate(WorldConfig::standard(seed));
    let system = AsdbSystem::build(&world, seed.derive("universe"));

    let records: Vec<ParsedWhois> = world.ases.iter().map(|r| r.parsed.clone()).collect();
    println!("Classifying {} ASes on 6 threads...", records.len());
    let start = Instant::now();
    let results = classify_batch_cached(&system, &records, 6);
    let elapsed = start.elapsed();
    println!(
        "  done in {:.1}s ({:.0} ASes/s), {} organizations cached",
        elapsed.as_secs_f64(),
        records.len() as f64 / elapsed.as_secs_f64(),
        system.cache().len(),
    );

    // Coverage and stage breakdown.
    let mut stages: HashMap<&'static str, usize> = HashMap::new();
    let mut classified = 0usize;
    let mut l1_correct = 0usize;
    for (rec, c) in world.ases.iter().zip(&results) {
        *stages.entry(c.stage.label()).or_insert(0) += 1;
        if c.is_classified() {
            classified += 1;
            let truth = world.org(rec.org).expect("owner exists").truth();
            l1_correct += usize::from(c.categories.overlaps_l1(&truth));
        }
    }
    println!("\nStage breakdown:");
    let mut rows: Vec<_> = stages.into_iter().collect();
    rows.sort();
    for (stage, n) in rows {
        println!(
            "  {stage:<35} {n:>6} ({:.1}%)",
            100.0 * n as f64 / results.len() as f64
        );
    }
    println!(
        "\nCoverage: {:.1}%   Layer-1 accuracy (vs ground truth): {:.1}%",
        100.0 * classified as f64 / results.len() as f64,
        100.0 * l1_correct as f64 / classified.max(1) as f64,
    );

    // Dump the dataset, paper-release style.
    let dump = dataset::write_jsonl(&results);
    let path = std::env::temp_dir().join("asdb_dataset.jsonl");
    std::fs::write(&path, &dump).expect("write dataset");
    println!(
        "\nDataset written to {} ({} lines, {} KiB)",
        path.display(),
        results.len(),
        dump.len() / 1024
    );
}
