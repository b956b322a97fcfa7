//! # asdb-cli
//!
//! Argument parsing and command dispatch for the `asdb` binary. Parsing is
//! hand-rolled (the workspace's dependency policy allows no CLI crates) and
//! unit-tested; the binary in `main.rs` is a thin shell around
//! [`Command::parse`] and [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use asdb_core::batch::{classify_batch_cached_with, BatchConfig};
use asdb_core::{dataset, AsdbSystem};
use asdb_model::{Asn, WorldSeed};
use asdb_worldgen::{World, WorldConfig};
use std::fmt;
use std::str::FromStr;

/// World scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~300 organizations — seconds to build.
    Small,
    /// ~4,000 organizations — the experiment scale.
    Standard,
}

impl Scale {
    fn config(self, seed: WorldSeed) -> WorldConfig {
        match self {
            Scale::Small => WorldConfig::small(seed),
            Scale::Standard => WorldConfig::standard(seed),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `asdb generate` — build a world and print its census.
    Generate {
        /// World scale.
        scale: Scale,
        /// Seed.
        seed: u64,
        /// Optional path to write the bulk WHOIS dump to.
        whois_out: Option<String>,
    },
    /// `asdb classify` — classify the universe (or specific ASNs).
    Classify {
        /// World scale.
        scale: Scale,
        /// Seed.
        seed: u64,
        /// Specific ASNs; empty = the whole universe.
        asns: Vec<Asn>,
        /// Optional JSONL output path.
        out: Option<String>,
        /// Worker threads.
        threads: usize,
        /// Optional path to dump the telemetry snapshot (JSON).
        metrics_out: Option<String>,
        /// `--fault-rate R`: injected fault probability per source attempt.
        fault_rate: f64,
    },
    /// `asdb lookup` — classify one AS and explain every pipeline step.
    Lookup {
        /// World scale.
        scale: Scale,
        /// Seed.
        seed: u64,
        /// The AS to explain.
        asn: Asn,
        /// Optional path to dump the telemetry snapshot (JSON).
        metrics_out: Option<String>,
        /// `--fault-rate R`: injected fault probability per source attempt.
        fault_rate: f64,
    },
    /// `asdb metrics` — classify a world and print the full telemetry
    /// report (stage counters, source hit rates, cache reuse, latency).
    Metrics {
        /// World scale.
        scale: Scale,
        /// Seed.
        seed: u64,
        /// Worker threads.
        threads: usize,
        /// Optional path to dump the telemetry snapshot (JSON).
        metrics_out: Option<String>,
        /// `--fault-rate R`: injected fault probability per source attempt.
        fault_rate: f64,
    },
    /// `asdb report` — regenerate the paper's tables and figures.
    Report {
        /// World scale.
        scale: Scale,
        /// Seed.
        seed: u64,
    },
    /// `asdb help`.
    Help,
}

/// A CLI parse error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The largest `--threads` value accepted. Each worker is one OS thread,
/// so an unchecked count could ask for one thread per record.
const MAX_THREADS: usize = 256;

/// The usage text.
pub const USAGE: &str = "\
asdb — reproduction of 'ASdb: A System for Classifying Owners of Autonomous Systems' (IMC '21)

USAGE:
  asdb generate [--scale small|standard] [--seed N] [--whois-out FILE]
  asdb classify [--scale small|standard] [--seed N] [--asn N]... [--out FILE] [--threads N]
                [--metrics FILE]
                [--fault-rate R]
  asdb lookup   --asn N [--scale small|standard] [--seed N] [--metrics FILE]
                [--fault-rate R]
  asdb metrics  [--scale small|standard] [--seed N] [--threads N]
                [--metrics FILE]
                [--fault-rate R]
  asdb report   [--scale small|standard] [--seed N]
  asdb help

Each subcommand takes only the flags listed for it (lookup takes one --asn);
any other flag is an error. Defaults: --scale small, --seed = the canonical
experiment seed, --threads 4. --threads N takes N in 1..=256. The batch
scheduler cuts the input into ~4 chunks per worker.

The metrics subcommand classifies every AS in the world (with the
organization cache) and prints the pipeline telemetry report: per-stage
counters (Table 8's rows), per-source query/match/reject counts, domain-
selection outcomes, ML fire/override counts, cache hit rates, scheduler
chunk/steal counts, and latency histograms. On classify-style commands,
--metrics FILE writes the same data as a JSON registry snapshot after the
run.

Source transport: --fault-rate R makes each source attempt fault with
probability R (R in [0,1], split evenly between errors and timeouts). A
faulted attempt is retried up to twice; a source whose three attempts all
fault is left out of the consensus and listed as degraded. Faults are drawn
from the seed, the source, the AS and the attempt, so they replay exactly.
The per-source timeout/failure/retry counters show the effect. Without the
flag the transport is transparent: every source answers as a direct search
would.
";

impl Command {
    /// Parse an argument vector (without the program name).
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, CliError> {
        let mut it = args.iter().map(AsRef::as_ref);
        let sub = it.next().unwrap_or("help");
        let rest: Vec<&str> = it.collect();
        let mut scale = Scale::Small;
        let mut seed = WorldSeed::DEFAULT.value();
        let mut whois_out: Option<String> = None;
        let mut out: Option<String> = None;
        let mut metrics_out: Option<String> = None;
        let mut asns: Vec<Asn> = Vec::new();
        let mut threads = 4usize;
        let mut fault_rate = 0.0;

        // The flags each subcommand takes; any other is an error, not
        // parsed and ignored.
        let takes: &[&str] = match sub {
            "generate" => &["--scale", "--seed", "--whois-out"],
            "classify" => &[
                "--scale",
                "--seed",
                "--asn",
                "--out",
                "--threads",
                "--metrics",
                "--fault-rate",
            ],
            "lookup" => &["--scale", "--seed", "--asn", "--metrics", "--fault-rate"],
            "metrics" => &[
                "--scale",
                "--seed",
                "--threads",
                "--metrics",
                "--fault-rate",
            ],
            "report" => &["--scale", "--seed"],
            "help" | "--help" | "-h" => &[],
            other => return Err(CliError(format!("unknown command {other:?}"))),
        };
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
            *i += 1;
            rest.get(*i)
                .map(|s| (*s).to_owned())
                .ok_or_else(|| CliError(format!("{flag} requires a value")))
        };
        while i < rest.len() {
            let flag = rest[i];
            match flag {
                "--scale" => {
                    scale = match value(&mut i, "--scale")?.as_str() {
                        "small" => Scale::Small,
                        "standard" => Scale::Standard,
                        other => {
                            return Err(CliError(format!(
                                "unknown scale {other:?}; use small or standard"
                            )))
                        }
                    };
                }
                "--seed" => {
                    let v = value(&mut i, "--seed")?;
                    seed = v
                        .parse::<u64>()
                        .map_err(|_| CliError(format!("invalid seed {v:?}")))?;
                }
                "--whois-out" => whois_out = Some(value(&mut i, "--whois-out")?),
                "--out" => out = Some(value(&mut i, "--out")?),
                "--metrics" => metrics_out = Some(value(&mut i, "--metrics")?),
                "--asn" => {
                    let v = value(&mut i, "--asn")?;
                    asns.push(
                        Asn::from_str(&v).map_err(|e| CliError(format!("invalid ASN: {e}")))?,
                    );
                }
                "--threads" => {
                    let v = value(&mut i, "--threads")?;
                    let n = v
                        .parse::<usize>()
                        .map_err(|_| CliError(format!("invalid thread count {v:?}")))?;
                    if !(1..=MAX_THREADS).contains(&n) {
                        return Err(CliError(format!(
                            "thread count {n} out of range; use 1..={MAX_THREADS}"
                        )));
                    }
                    threads = n;
                }
                "--fault-rate" => {
                    let v = value(&mut i, "--fault-rate")?;
                    let r = v
                        .parse::<f64>()
                        .map_err(|_| CliError(format!("invalid fault rate {v:?}")))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(CliError(format!(
                            "fault rate {r} out of range; use 0.0..=1.0"
                        )));
                    }
                    fault_rate = r;
                }
                other => return Err(CliError(format!("unknown flag {other:?}"))),
            }
            if !takes.contains(&flag) {
                return Err(CliError(format!("{sub} does not take {flag}")));
            }
            i += 1;
        }

        if sub == "lookup" && asns.len() > 1 {
            return Err(CliError("lookup takes one --asn".into()));
        }

        match sub {
            "generate" => Ok(Command::Generate {
                scale,
                seed,
                whois_out,
            }),
            "classify" => Ok(Command::Classify {
                scale,
                seed,
                asns,
                out,
                threads,
                metrics_out,
                fault_rate,
            }),
            "lookup" => {
                let asn = *asns
                    .first()
                    .ok_or_else(|| CliError("lookup requires --asn N".into()))?;
                Ok(Command::Lookup {
                    scale,
                    seed,
                    asn,
                    metrics_out,
                    fault_rate,
                })
            }
            "metrics" => Ok(Command::Metrics {
                scale,
                seed,
                threads,
                metrics_out,
                fault_rate,
            }),
            "report" => Ok(Command::Report { scale, seed }),
            _ => Ok(Command::Help),
        }
    }
}

/// Execute a parsed command, writing human output to `out`. Returns the
/// process exit code.
pub fn run(cmd: Command, out: &mut dyn std::io::Write) -> std::io::Result<i32> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(0)
        }
        Command::Generate {
            scale,
            seed,
            whois_out,
        } => {
            let world = World::generate(scale.config(WorldSeed::new(seed)));
            writeln!(
                out,
                "world: {} organizations, {} ASes, {} live sites",
                world.orgs.len(),
                world.ases.len(),
                world.web.len()
            )?;
            let mut per_rir: std::collections::BTreeMap<&str, usize> = Default::default();
            for rec in &world.ases {
                *per_rir.entry(rec.rir.name()).or_insert(0) += 1;
            }
            for (rir, n) in per_rir {
                writeln!(out, "  {rir:<8} {n}")?;
            }
            if let Some(path) = whois_out {
                let rendered: Vec<_> = world
                    .ases
                    .iter()
                    .map(|r| asdb_rir::dialect::serialize(r.rir, &r.registration))
                    .collect();
                let text = asdb_rir::dump::write_dump(&rendered);
                std::fs::write(&path, &text)?;
                writeln!(
                    out,
                    "WHOIS dump written to {path} ({} KiB)",
                    text.len() / 1024
                )?;
            }
            Ok(0)
        }
        Command::Classify {
            scale,
            seed,
            asns,
            out: out_path,
            threads,
            metrics_out,
            fault_rate,
        } => {
            let seed = WorldSeed::new(seed);
            let world = World::generate(scale.config(seed));
            let system = AsdbSystem::build(&world, seed.derive("cli")).with_fault_rate(fault_rate);
            let records: Vec<_> = if asns.is_empty() {
                world.ases.iter().map(|r| r.parsed.clone()).collect()
            } else {
                let mut rs = Vec::new();
                for a in &asns {
                    match world.as_record(*a) {
                        Some(r) => rs.push(r.parsed.clone()),
                        None => {
                            writeln!(out, "error: {a} is not registered in this world")?;
                            return Ok(2);
                        }
                    }
                }
                rs
            };
            let config = BatchConfig::with_threads(threads);
            let results = classify_batch_cached_with(&system, &records, config);
            let classified = results.iter().filter(|c| c.is_classified()).count();
            writeln!(
                out,
                "classified {}/{} ASes ({} organizations cached)",
                classified,
                results.len(),
                system.cache().len()
            )?;
            match out_path {
                Some(path) => {
                    std::fs::write(&path, dataset::write_jsonl(&results))?;
                    writeln!(out, "dataset written to {path}")?;
                }
                None => {
                    for c in results.iter().take(20) {
                        writeln!(out, "{}  [{}]  {}", c.asn, c.stage.label(), c.categories)?;
                    }
                    if results.len() > 20 {
                        writeln!(
                            out,
                            "… ({} more; use --out FILE for the full dump)",
                            results.len() - 20
                        )?;
                    }
                }
            }
            if let Some(path) = metrics_out {
                std::fs::write(&path, system.metrics_json())?;
                writeln!(out, "metrics snapshot written to {path}")?;
            }
            Ok(0)
        }
        Command::Lookup {
            scale,
            seed,
            asn,
            metrics_out,
            fault_rate,
        } => {
            let seed = WorldSeed::new(seed);
            let world = World::generate(scale.config(seed));
            let Some(rec) = world.as_record(asn) else {
                writeln!(out, "error: {asn} is not registered in this world")?;
                return Ok(2);
            };
            let system = AsdbSystem::build(&world, seed.derive("cli")).with_fault_rate(fault_rate);
            let c = system.classify(&rec.parsed);
            writeln!(out, "{asn} @ {}", rec.rir)?;
            writeln!(out, "  WHOIS name : {}", rec.parsed.name)?;
            writeln!(
                out,
                "  candidates : {}",
                rec.parsed
                    .candidate_domains()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
            writeln!(
                out,
                "  chosen     : {}",
                c.chosen_domain
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "-".into())
            )?;
            if let Some(v) = &c.ml {
                writeln!(
                    out,
                    "  ML         : p_isp={:.2} p_hosting={:.2}",
                    v.p_isp, v.p_hosting
                )?;
            }
            for (src, labels) in &c.match_labels {
                writeln!(out, "  {src:<10} : {labels}")?;
            }
            if !c.degraded.is_empty() {
                writeln!(
                    out,
                    "  degraded   : {}",
                    c.degraded
                        .iter()
                        .map(|s| s.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )?;
            }
            writeln!(out, "  stage      : {}", c.stage.label())?;
            writeln!(out, "  verdict    : {}", c.categories)?;
            if let Some(path) = metrics_out {
                std::fs::write(&path, system.metrics_json())?;
                writeln!(out, "metrics snapshot written to {path}")?;
            }
            Ok(0)
        }
        Command::Metrics {
            scale,
            seed,
            threads,
            metrics_out,
            fault_rate,
        } => {
            let seed = WorldSeed::new(seed);
            let world = World::generate(scale.config(seed));
            let system = AsdbSystem::build(&world, seed.derive("cli")).with_fault_rate(fault_rate);
            let records: Vec<_> = world.ases.iter().map(|r| r.parsed.clone()).collect();
            let config = BatchConfig::with_threads(threads);
            let results = classify_batch_cached_with(&system, &records, config);
            writeln!(
                out,
                "classified {} ASes across {} threads\n",
                results.len(),
                threads
            )?;
            writeln!(out, "{}", system.metrics_text())?;
            if let Some(path) = metrics_out {
                std::fs::write(&path, system.metrics_json())?;
                writeln!(out, "metrics snapshot written to {path}")?;
            }
            Ok(0)
        }
        Command::Report { scale, seed } => {
            let ctx = asdb_eval::ExperimentContext::build(scale.config(WorldSeed::new(seed)));
            writeln!(out, "{}", asdb_eval::experiments::run_all(&ctx))?;
            Ok(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        Command::parse(args)
    }

    #[test]
    fn parses_defaults() {
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(parse(&[]), Ok(Command::Help));
        let g = parse(&["generate"]).unwrap();
        assert!(matches!(
            g,
            Command::Generate {
                scale: Scale::Small,
                whois_out: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_flags() {
        let c = parse(&[
            "classify",
            "--scale",
            "standard",
            "--seed",
            "42",
            "--asn",
            "AS1000",
            "--asn",
            "2000",
            "--out",
            "/tmp/x.jsonl",
            "--threads",
            "8",
            "--metrics",
            "/tmp/m.json",
        ])
        .unwrap();
        match c {
            Command::Classify {
                scale,
                seed,
                asns,
                out,
                threads,
                metrics_out,
                fault_rate,
            } => {
                assert_eq!(scale, Scale::Standard);
                assert_eq!(seed, 42);
                assert_eq!(asns, vec![Asn::new(1000), Asn::new(2000)]);
                assert_eq!(out.as_deref(), Some("/tmp/x.jsonl"));
                assert_eq!(threads, 8);
                assert_eq!(metrics_out.as_deref(), Some("/tmp/m.json"));
                assert_eq!(fault_rate, 0.0, "no faults unless asked for");
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parses_transport_flags() {
        match parse(&["classify", "--fault-rate", "0.25"]).unwrap() {
            Command::Classify { fault_rate, .. } => assert_eq!(fault_rate, 0.25),
            other => panic!("parsed {other:?}"),
        }
        match parse(&["metrics", "--fault-rate", "1"]).unwrap() {
            Command::Metrics { fault_rate, .. } => assert_eq!(fault_rate, 1.0),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["classify", "--fault-rate", "1.5"]).is_err());
        assert!(parse(&["classify", "--fault-rate", "x"]).is_err());
        assert!(parse(&["classify", "--fault-rate"]).is_err());
        // The fault rate is the transport's only knob.
        for flag in ["--source-timeout-ms", "--retries"] {
            let err = parse(&["classify", flag, "5"]).unwrap_err();
            assert!(err.0.contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn parses_metrics_command() {
        let c = parse(&["metrics", "--threads", "2", "--metrics", "/tmp/m.json"]).unwrap();
        match c {
            Command::Metrics {
                scale,
                threads,
                metrics_out,
                ..
            } => {
                assert_eq!(scale, Scale::Small);
                assert_eq!(threads, 2);
                assert_eq!(metrics_out.as_deref(), Some("/tmp/m.json"));
            }
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&["metrics", "--metrics"]).is_err());
    }

    #[test]
    fn thread_count_must_be_in_range() {
        assert!(USAGE.contains(&format!("--threads N takes N in 1..={MAX_THREADS}")));
        for sub in ["classify", "metrics"] {
            for n in ["1", "256"] {
                assert!(parse(&[sub, "--threads", n]).is_ok(), "{sub} --threads {n}");
            }
            for n in ["0", "257", "4537", "18446744073709551615"] {
                let err = parse(&[sub, "--threads", n]).unwrap_err();
                assert!(err.0.contains("out of range"), "{sub} --threads {n}: {err}");
            }
            for n in ["-1", "x", "1.5"] {
                assert!(
                    parse(&[sub, "--threads", n]).is_err(),
                    "{sub} --threads {n}"
                );
            }
        }
    }

    #[test]
    fn scheduler_flags_are_not_options() {
        // The scheduler's chunk size is fixed, the cache has one map, and
        // the metrics run classifies each AS once.
        for flag in ["--chunk-size", "--shards", "--dup"] {
            for sub in ["classify", "metrics"] {
                let err = parse(&[sub, flag, "4"]).unwrap_err();
                assert!(err.0.contains("unknown flag"), "{sub} {flag}: {err}");
            }
        }
    }

    #[test]
    fn metrics_report_stage_counts_sum_to_universe() {
        let mut buf = Vec::new();
        let code = run(
            Command::Metrics {
                scale: Scale::Small,
                seed: 9,
                threads: 2,
                metrics_out: None,
                fault_rate: 0.0,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("pipeline stages"), "{text}");
        assert!(text.contains("source transport"), "{text}");
        assert!(text.contains("org cache"), "{text}");
        assert!(text.contains("hit-rate"), "{text}");
        assert!(text.contains("steals"), "{text}");
        // "classified N ASes" must equal the stage-counter total printed
        // on the report's total row.
        let n: u64 = text
            .split("classified ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("report names the universe size");
        let total: u64 = text
            .lines()
            .find(|l| l.trim_start().starts_with("total"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("report has a total row");
        assert_eq!(n, total, "{text}");
    }

    /// Every subcommand rejects, by name, each flag another subcommand
    /// takes and it does not, instead of parsing and ignoring it.
    #[test]
    fn subcommands_reject_flags_they_ignore() {
        let values: &[(&str, &str)] = &[
            ("--scale", "small"),
            ("--seed", "3"),
            ("--whois-out", "w.txt"),
            ("--asn", "5"),
            ("--out", "x.jsonl"),
            ("--threads", "3"),
            ("--metrics", "m.json"),
            ("--fault-rate", "0.5"),
        ];
        let takes: &[(&str, &[&str])] = &[
            ("generate", &["--scale", "--seed", "--whois-out"]),
            (
                "classify",
                &[
                    "--scale",
                    "--seed",
                    "--asn",
                    "--out",
                    "--threads",
                    "--metrics",
                    "--fault-rate",
                ],
            ),
            (
                "lookup",
                &["--scale", "--seed", "--asn", "--metrics", "--fault-rate"],
            ),
            (
                "metrics",
                &[
                    "--scale",
                    "--seed",
                    "--threads",
                    "--metrics",
                    "--fault-rate",
                ],
            ),
            ("report", &["--scale", "--seed"]),
            ("help", &[]),
        ];
        for (sub, taken) in takes {
            // Lookup needs its ASN whatever else is given.
            let base = if *sub == "lookup" {
                vec![*sub, "--asn", "7"]
            } else {
                vec![*sub]
            };
            let mut all = base.clone();
            for (flag, v) in values {
                if taken.contains(flag) && !base.contains(flag) {
                    all.extend([*flag, *v]);
                }
            }
            assert!(parse(&all).is_ok(), "{all:?}");
            for (flag, v) in values {
                if taken.contains(flag) {
                    continue;
                }
                let mut args = base.clone();
                args.extend([*flag, *v]);
                let err = parse(&args).unwrap_err();
                assert_eq!(err.0, format!("{sub} does not take {flag}"), "{args:?}");
            }
        }
        let err = parse(&["lookup", "--asn", "5", "--asn", "6"]).unwrap_err();
        assert!(err.0.contains("lookup") && err.0.contains("--asn"), "{err}");
        // The invocation that used to exit 0 and write nothing.
        let err = parse(&[
            "generate",
            "--threads",
            "3",
            "--fault-rate",
            "0.5",
            "--out",
            "x",
            "--metrics",
            "m",
            "--asn",
            "5",
        ])
        .unwrap_err();
        assert_eq!(err.0, "generate does not take --threads");
        assert!(parse(&["frobnicate", "--threads", "3"])
            .unwrap_err()
            .0
            .contains("unknown command"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["generate", "--scale", "galactic"]).is_err());
        assert!(parse(&["generate", "--seed"]).is_err());
        assert!(parse(&["generate", "--seed", "NaN"]).is_err());
        assert!(parse(&["classify", "--asn", "ASX"]).is_err());
        assert!(parse(&["lookup"]).is_err(), "lookup needs --asn");
        assert!(parse(&["generate", "--bogus"]).is_err());
    }

    #[test]
    fn help_runs() {
        let mut buf = Vec::new();
        let code = run(Command::Help, &mut buf).unwrap();
        assert_eq!(code, 0);
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_small_runs() {
        let mut buf = Vec::new();
        let code = run(
            Command::Generate {
                scale: Scale::Small,
                seed: 9,
                whois_out: None,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("organizations"), "{text}");
    }

    #[test]
    fn lookup_unknown_asn_fails_cleanly() {
        let mut buf = Vec::new();
        let code = run(
            Command::Lookup {
                scale: Scale::Small,
                seed: 9,
                asn: Asn::new(999_999_999),
                metrics_out: None,
                fault_rate: 0.0,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 2);
        assert!(String::from_utf8(buf).unwrap().contains("not registered"));
    }
}
