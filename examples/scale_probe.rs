//! Per-AS cost and memory of one world scale: the standard world's
//! `n_orgs` times 1, 4 or 16.
//!
//! ```sh
//! cargo run --release --example scale_probe -- --scale 16 --seed 1
//! ```
//!
//! It prints the AS count, the worldgen and `AsdbSystem::build` seconds,
//! the µs per AS of an uncached and then a cached batch on 2 threads, and
//! the process's peak RSS. Run one scale per process: peak RSS (`VmHWM`)
//! only ever rises, so a second scale in the same process would report
//! the larger of the two.

use asdb_core::batch::{classify_batch, classify_batch_cached};
use asdb_core::AsdbSystem;
use asdb_model::WorldSeed;
use asdb_rir::ParsedWhois;
use asdb_worldgen::{World, WorldConfig};
use std::time::Instant;

const THREADS: usize = 2;

fn main() {
    let (scale, seed) = parse_args();
    let mut config = WorldConfig::standard(WorldSeed::new(seed));
    config.n_orgs *= scale;

    let start = Instant::now();
    let world = World::generate(config);
    let worldgen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let system = AsdbSystem::build(&world, WorldSeed::new(seed).derive("scale-probe"));
    let build_s = start.elapsed().as_secs_f64();

    let records: Vec<ParsedWhois> = world.ases.iter().map(|r| r.parsed.clone()).collect();
    let us_per_as = |batch: fn(&AsdbSystem, &[ParsedWhois], usize) -> _| {
        let start = Instant::now();
        let labels: Vec<_> = batch(&system, &records, THREADS);
        assert_eq!(labels.len(), records.len());
        start.elapsed().as_secs_f64() * 1e6 / records.len() as f64
    };
    let uncached = us_per_as(classify_batch);
    let cached = us_per_as(classify_batch_cached);

    println!(
        "scale            {scale}x (n_orgs {}, seed {seed})",
        world.config.n_orgs
    );
    println!("ases             {}", records.len());
    println!("worldgen_s       {worldgen_s:.2}");
    println!("system_build_s   {build_s:.2}");
    println!("uncached_us_as   {uncached:.0} ({THREADS} threads)");
    println!("cached_us_as     {cached:.0} ({THREADS} threads)");
    match peak_rss_mb() {
        Some(mb) => println!("peak_rss_mb      {mb:.0}"),
        None => println!("peak_rss_mb      unknown (no /proc/self/status)"),
    }
}

/// `--scale 1|4|16` (default 1) and `--seed N` (default 1).
fn parse_args() -> (usize, u64) {
    let (mut scale, mut seed) = (1, 1);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => scale = value.parse().unwrap_or_else(|_| usage("bad --scale")),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if ![1, 4, 16].contains(&scale) {
        usage("--scale must be 1, 4 or 16");
    }
    (scale, seed)
}

fn usage(problem: &str) -> ! {
    eprintln!("scale_probe: {problem}\nusage: scale_probe [--scale 1|4|16] [--seed N]");
    std::process::exit(2)
}

/// This process's peak resident set size in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
