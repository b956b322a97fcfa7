//! One entry point per paper table/figure, each returning a rendered text
//! report (and structured data via the underlying modules).
//!
//! The paper-vs-measured comparison these produce is recorded in the
//! repository's `EXPERIMENTS.md`.

use crate::category_eval;
use crate::context::ExperimentContext;
use crate::crowd_eval::{self, consensus_sweep, reward_sweep, wage_tasks};
use crate::entity_eval;
use crate::labeler::LabelerModel;
use crate::ml_eval;
use crate::report::{pct, pct1, TextTable};
use crate::source_eval::{self, AllSources};
use crate::system_eval;
use asdb_core::maintain::Maintainer;
use asdb_model::Date;
use asdb_taxonomy::Layer1;
use asdb_worldgen::churn::{ChurnConfig, ChurnStream};
use asdb_worldgen::scan::{scan_world, telnet_exposure_rate};
use asdb_worldgen::Organization;

/// Figure 1: NAICS vs NAICSlite inter-labeler agreement.
pub fn fig1(ctx: &ExperimentContext) -> String {
    let sample: Vec<&Organization> = ctx.world.orgs.iter().take(600).collect();
    let (naics, lite) =
        LabelerModel::default().agreement_experiment(&sample, ctx.seed.derive("fig1"));
    let mut t = TextTable::new(
        "Figure 1 — labeler agreement (paper: NAICS 71/31/41/18, NAICSlite 92/78/78/73)",
    )
    .header([
        "System",
        ">=1 top",
        ">=1 low",
        "complete top",
        "complete low",
    ]);
    t.row([
        "NAICS".to_owned(),
        pct(naics.any_top),
        pct(naics.any_low),
        pct(naics.complete_top),
        pct(naics.complete_low),
    ]);
    t.row([
        "NAICSlite".to_owned(),
        pct(lite.any_top),
        pct(lite.any_low),
        pct(lite.complete_top),
        pct(lite.complete_low),
    ]);
    t.render()
}

/// Table 2: the four labeled datasets.
pub fn tab2(ctx: &ExperimentContext) -> String {
    let mut t = TextTable::new("Table 2 — labeled ground truth").header([
        "Dataset",
        "ASes",
        "Labeled",
        "With layer 2",
    ]);
    for set in [&ctx.gold, &ctx.uniform, &ctx.test] {
        t.row([
            set.name.to_owned(),
            set.entries.len().to_string(),
            set.labeled_count().to_string(),
            set.layer2_count().to_string(),
        ]);
    }
    t.row([
        "ML training set".to_owned(),
        "225".to_owned(),
        "150 random + 75 hosting".to_owned(),
        "-".to_owned(),
    ]);
    t.render()
}

fn all_sources(ctx: &ExperimentContext) -> AllSources<'_> {
    AllSources::build(&ctx.system.sources, &ctx.world, ctx.seed.derive("dropped"))
}

/// Table 3: external data source coverage.
pub fn tab3(ctx: &ExperimentContext) -> String {
    let s = all_sources(ctx);
    let rows = source_eval::table3(&ctx.world, &ctx.gold, &s);
    let mut t = TextTable::new("Table 3 — external data source coverage (paper: D&B 82%, Zvelo 93%, CB 37%, PDB 15%, IPinfo 30%)")
        .header(["Source", "Coverage", "Tech", "Non-tech"]);
    for r in rows {
        t.row([
            r.source.name().to_owned(),
            r.overall.to_string(),
            r.tech.to_string(),
            r.nontech.to_string(),
        ]);
    }
    let union = source_eval::union_coverage(
        &ctx.world,
        &ctx.gold,
        &s,
        &asdb_sources::SourceId::ASDB_FIVE,
    );
    t.row([
        "All - ZI, CL".to_owned(),
        union.to_string(),
        String::new(),
        String::new(),
    ]);
    t.render()
}

/// Table 4: external data source correctness.
pub fn tab4(ctx: &ExperimentContext) -> String {
    let s = all_sources(ctx);
    let rows = source_eval::table4(&ctx.world, &ctx.gold, &s);
    let mut t = TextTable::new(
        "Table 4 — external data source correctness (paper: D&B L1 96%, hosting 45%, ISP 70%)",
    )
    .header([
        "Source", "L1", "L1 tech", "L1 non", "L2", "L2 tech", "L2 non", "Hosting", "ISP",
    ]);
    for r in rows {
        t.row([
            r.source.name().to_owned(),
            r.l1_overall.to_string(),
            r.l1_tech.to_string(),
            r.l1_nontech.to_string(),
            r.l2_overall.to_string(),
            r.l2_tech.to_string(),
            r.l2_nontech.to_string(),
            r.l2_hosting.to_string(),
            r.l2_isp.to_string(),
        ]);
    }
    t.render()
}

/// Figure 2: D&B confidence-code reliability.
pub fn fig2(ctx: &ExperimentContext) -> String {
    let dist = entity_eval::dnb_confidence_distribution(&ctx.world, &ctx.gold, &ctx.system.sources);
    let mut t = TextTable::new(
        "Figure 2 — D&B match accuracy by confidence code (paper: <50% below 6, >=80% at 6+)",
    )
    .header(["Code", "Accuracy", "Matches"]);
    for (code, acc, n) in dist {
        t.row([code.to_string(), pct(acc), n.to_string()]);
    }
    t.render()
}

/// Table 5: automated entity-resolution accuracy.
pub fn tab5(ctx: &ExperimentContext) -> String {
    let rows = entity_eval::table5(
        &ctx.world,
        &ctx.gold,
        &ctx.system.sources,
        ctx.seed.derive("tab5"),
    );
    let mut t = TextTable::new("Table 5 — automated entity resolution (paper: D&B 83/89%, CB domain 100%, most-similar 91%)")
        .header(["Strategy", "Match acc.", "Correct", "Incorrect", "Missing"]);
    for r in rows {
        t.row([
            r.label,
            pct(r.match_accuracy),
            pct(r.correct),
            pct(r.incorrect),
            pct(r.missing),
        ]);
    }
    t.render()
}

/// Table 6: ML classifier evaluation.
pub fn tab6(ctx: &ExperimentContext) -> String {
    let panels = ml_eval::table6(&ctx.world, &ctx.gold, &ctx.system);
    let mut t = TextTable::new(
        "Table 6 — classifier evaluation (paper: hosting 90%/AUC .80, ISP 94%/AUC .94)",
    )
    .header([
        "Classifier",
        "TP",
        "FN",
        "FP",
        "TN",
        "Accuracy",
        "FP rate",
        "AUC",
    ]);
    for p in panels {
        t.row([
            p.name.to_owned(),
            p.confusion.tp.to_string(),
            p.confusion.fn_.to_string(),
            p.confusion.fp.to_string(),
            p.confusion.tn.to_string(),
            pct(p.confusion.accuracy()),
            pct1(p.confusion.fp_fraction()),
            format!("{:.2}", p.auc),
        ]);
    }
    t.render()
}

/// Table 7: F1 against IPinfo and PeeringDB.
pub fn tab7(ctx: &ExperimentContext) -> String {
    let mut t =
        TextTable::new("Table 7 — F1 vs prior work (paper: ASdb always wins; hosting hardest)")
            .header(["Dataset", "Class", "N", "ASdb", "IPinfo", "PeeringDB"]);
    for set in [&ctx.gold, &ctx.test] {
        for r in system_eval::table7(&ctx.world, set, &ctx.system) {
            t.row([
                set.name.to_owned(),
                r.class.to_string(),
                r.n.to_string(),
                format!("{:.2}", r.asdb),
                format!("{:.2}", r.ipinfo),
                format!("{:.2}", r.peeringdb),
            ]);
        }
    }
    t.render()
}

/// Table 8: ASdb per-stage evaluation over the three datasets.
pub fn tab8(ctx: &ExperimentContext) -> String {
    let mut t = TextTable::new("Table 8 — ASdb stages (paper: overall L1 97/93/89%, L2 87/75/82%)")
        .header(["Dataset", "Stage", "Coverage", "Accuracy"]);
    for set in [&ctx.gold, &ctx.test, &ctx.uniform] {
        let st = system_eval::table8(&ctx.world, set, &ctx.system);
        for (stage, cov, acc) in &st.stages {
            t.row([st.dataset.clone(), stage.clone(), pct(*cov), pct(*acc)]);
        }
        t.row([
            st.dataset.clone(),
            "Overall Layer 1".to_owned(),
            pct(st.layer1.0),
            pct(st.layer1.1),
        ]);
        t.row([
            st.dataset.clone(),
            "Overall Layer 2".to_owned(),
            pct(st.layer2.0),
            pct(st.layer2.1),
        ]);
        t.row([
            st.dataset,
            "Layer 2 tech / non-tech".to_owned(),
            String::new(),
            format!("{} / {}", pct(st.layer2_tech.1), pct(st.layer2_nontech.1)),
        ]);
    }
    t.render()
}

/// Table 9: ASdb supplemented with crowdwork.
pub fn tab9(ctx: &ExperimentContext) -> String {
    let t9 = crowd_eval::table9(&ctx.world, &ctx.test, &ctx.system, ctx.seed.derive("tab9"));
    let mut t = TextTable::new("Table 9 — ASdb + crowdwork (paper: accuracy delta <= +3-4%)")
        .header(["Stage", "N", "Baseline acc.", "Crowd acc."]);
    for r in &t9.rows {
        t.row([
            r.stage.clone(),
            r.n.to_string(),
            pct(r.baseline_accuracy),
            pct(r.crowd_accuracy),
        ]);
    }
    t.row([
        "Overall Layer 1".to_owned(),
        String::new(),
        pct(t9.base_l1_accuracy),
        pct(t9.crowd_l1_accuracy),
    ]);
    t.render()
}

/// Table 10: per-category accuracy/coverage with automated matching.
pub fn tab10(ctx: &ExperimentContext) -> String {
    let rows = category_eval::table10(&ctx.world, &ctx.uniform, &ctx.system);
    let mut header = vec!["Source".to_owned(), "Overall".to_owned()];
    header.extend(Layer1::SUBSTANTIVE.iter().map(|l| l.slug().to_owned()));
    let mut t =
        TextTable::new("Table 10 — per-category accuracy with matching (Uniform Gold Standard)")
            .header(header);
    for r in rows {
        let mut cols = vec![r.label.clone(), r.overall.to_string()];
        for l1 in Layer1::SUBSTANTIVE {
            cols.push(r.per_l1[l1.ordinal()].to_string());
        }
        t.row(cols);
    }
    t.render()
}

/// Table 11: per-category precision with source-agreement combos.
pub fn tab11(ctx: &ExperimentContext) -> String {
    let s = all_sources(ctx);
    let rows = source_eval::table11(&ctx.world, &ctx.uniform, &s);
    let mut t =
        TextTable::new("Table 11 — per-category precision; 2-source agreement ~100% (paper)")
            .header(["Source", "Overall precision", "Covered"]);
    for r in rows {
        t.row([r.label, pct(r.overall.frac()), r.overall.den.to_string()]);
    }
    t.render()
}

/// Figures 5a/5b and 6: the reward sweep.
pub fn fig5_fig6(ctx: &ExperimentContext) -> String {
    let tech = wage_tasks(&ctx.world, &ctx.uniform, Layer1::ComputerAndIT, 20);
    let fin = wage_tasks(&ctx.world, &ctx.uniform, Layer1::Finance, 20);
    let mut t = TextTable::new(
        "Figures 5a/5b/6 — reward sweep (paper: coverage rises, accuracy flat, wages uncorrelated)",
    )
    .header([
        "Tasks",
        "Reward",
        "Coverage",
        "Loose acc.",
        "Strict acc.",
        "Median wage",
    ]);
    for (label, tasks) in [("Technology", &tech), ("Finance", &fin)] {
        if tasks.is_empty() {
            continue;
        }
        for p in reward_sweep(tasks, &format!("fig5-{label}"), ctx.seed.derive("fig5")) {
            t.row([
                label.to_owned(),
                format!("{}c", p.reward_cents),
                pct(p.coverage),
                pct(p.loose_accuracy),
                pct(p.strict_accuracy),
                format!("${:.2}/h", p.median_wage),
            ]);
        }
    }
    t.render()
}

/// Figure 7: the consensus-requirement sweep.
pub fn fig7(ctx: &ExperimentContext) -> String {
    let tech = wage_tasks(&ctx.world, &ctx.uniform, Layer1::ComputerAndIT, 20);
    let mut t =
        TextTable::new("Figure 7 — consensus requirement (paper: 4/5 = +accuracy, -coverage)")
            .header(["Rule", "Coverage", "Loose acc.", "Strict acc."]);
    for p in consensus_sweep(&tech, "fig7", ctx.seed.derive("fig7")) {
        t.row([
            format!("{}/{}", p.rule.k, p.rule.n),
            pct(p.coverage),
            pct(p.loose_accuracy),
            pct(p.strict_accuracy),
        ]);
    }
    t.render()
}

/// §5.3: the maintenance estimate.
pub fn maintenance(ctx: &ExperimentContext) -> String {
    let mut maintainer = Maintainer::new(&ctx.system, &ctx.world);
    let stream = ChurnStream::new(
        ChurnConfig {
            window_days: 28,
            ..ChurnConfig::default()
        },
        ctx.world.asns(),
        ctx.world.orgs.iter().map(|o| o.id).collect(),
        Date::from_ymd(2020, 10, 1).expect("static date"),
        ctx.seed.derive("maintenance"),
    );
    maintainer.run(stream);
    let r = maintainer.report();
    let mut t = TextTable::new("Maintenance (§5.3; paper: ~21 ASes/day, ~140 updates/week)")
        .header(["Metric", "Value"]);
    t.row(["Days simulated".to_owned(), r.days.to_string()]);
    t.row(["New ASes".to_owned(), r.new_ases.to_string()]);
    t.row(["Cache hits".to_owned(), r.cache_hits.to_string()]);
    t.row([
        "Full classifications".to_owned(),
        r.full_classifications.to_string(),
    ]);
    t.row(["Invalidations".to_owned(), r.invalidations.to_string()]);
    t.row([
        "Weekly updates".to_owned(),
        format!("{:.0}", r.weekly_updates()),
    ]);
    t.render()
}

/// §6: the Telnet case study.
pub fn telnet(ctx: &ExperimentContext) -> String {
    let scan = scan_world(&ctx.world, ctx.seed.derive("telnet"));
    let mut per_l1: std::collections::HashMap<Layer1, (usize, usize)> = Default::default();
    for obs in &scan {
        if let Some(org) = ctx.world.org_of(obs.asn) {
            let e = per_l1.entry(org.category.layer1).or_insert((0, 0));
            e.0 += usize::from(obs.telnet);
            e.1 += 1;
        }
    }
    let mut rows: Vec<(Layer1, f64, usize)> = per_l1
        .into_iter()
        .map(|(l1, (hit, n))| (l1, hit as f64 / n.max(1) as f64, n))
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut t =
        TextTable::new("§6 — Telnet exposure by industry (paper: critical infrastructure > tech)")
            .header(["Industry", "Telnet rate", "ASes", "Model rate"]);
    for (l1, rate, n) in rows {
        t.row([
            l1.title().to_owned(),
            pct(rate),
            n.to_string(),
            pct(telnet_exposure_rate(l1)),
        ]);
    }
    t.render()
}

/// ML cross-validation + ensemble-size ablation (extension): 5-fold CV of
/// the ISP detector at three ensemble sizes, quantifying the variance
/// behind Table 6's single-split numbers.
pub fn ml_cv_report(ctx: &ExperimentContext) -> String {
    use asdb_taxonomy::naicslite::known;
    use asdb_textml::pipeline::PipelineConfig;
    use asdb_websim::scraper::{scrape, ScrapeConfig};
    use asdb_websim::Translator;

    let translator = Translator::new(0.05, ctx.seed.derive("cv-mt"));
    let mut docs: Vec<String> = Vec::new();
    let mut labels: Vec<bool> = Vec::new();
    for asn in ctx.world.sample_asns(300, "ml-cv") {
        let Some(org) = ctx.world.org_of(asn) else {
            continue;
        };
        let Some(domain) = &org.domain else { continue };
        let Ok(res) = scrape(&ctx.world.web, domain, &ScrapeConfig::default()) else {
            continue;
        };
        docs.push(translator.translate(&res.text).into_owned());
        labels.push(org.truth().layer2s().contains(&known::isp()));
    }
    let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();

    let mut t = TextTable::new("ML cross-validation — ISP detector, 5-fold (extension)").header([
        "Ensemble size",
        "Mean accuracy",
        "Std",
        "Mean AUC",
    ]);
    for members in [1usize, 3, 7] {
        let mut cfg = PipelineConfig::asdb_default();
        cfg.n_members = members;
        let cv = asdb_textml::cross_validate(
            &doc_refs,
            &labels,
            5,
            cfg,
            ctx.seed.derive_index("ml-cv", members as u64),
        );
        t.row([
            members.to_string(),
            pct1(cv.mean_accuracy()),
            pct1(cv.accuracy_std()),
            format!("{:.3}", cv.mean_auc()),
        ]);
    }
    t.render()
}

/// §3.4: the disagreement-type analysis (nuanced / blatant / entity).
pub fn disagreement(ctx: &ExperimentContext) -> String {
    let mut t = TextTable::new("Disagreement analysis (§3.4; paper: GS 13% zero-overlap; 6% nuanced, 7% blatant, 14% entity)")
        .header(["Dataset", "Multi-source", "Agreeing", "Nuanced", "Blatant", "Entity"]);
    for set in [&ctx.gold, &ctx.uniform] {
        let a = source_eval::disagreement_analysis(&ctx.world, set, &ctx.system.sources);
        let p = |n: usize| format!("{} ({:.0}%)", n, 100.0 * n as f64 / a.total.max(1) as f64);
        t.row([
            set.name.to_owned(),
            p(a.multi_source),
            p(a.agreeing),
            p(a.nuanced),
            p(a.blatant),
            p(a.entity),
        ]);
    }
    t.render()
}

/// Design-choice ablations (DESIGN.md extension): the Table-8-style
/// evaluation with one pipeline ingredient disabled per arm.
pub fn ablation_report(ctx: &ExperimentContext) -> String {
    let arms = crate::ablations::run_ablations(&ctx.world, &ctx.test, &ctx.system);
    let mut t = TextTable::new("Ablations — what each Figure 4 ingredient contributes (test set)")
        .header(["Arm", "Coverage", "L1 acc.", "L2 acc.", "Hosting recall"]);
    for a in arms {
        t.row([
            a.name,
            pct(a.coverage),
            pct(a.l1_accuracy.frac()),
            pct(a.l2_accuracy.frac()),
            pct(a.hosting_recall.frac()),
        ]);
    }
    t.render()
}

/// Background comparison (§2): prior-work baselines vs ASdb on the gold
/// standard.
pub fn background_report(ctx: &ExperimentContext) -> String {
    let rows = crate::background::compare(&ctx.world, &ctx.gold, &ctx.system, ctx.seed);
    let mut t =
        TextTable::new("Background (§2) — prior work vs ASdb on the gold standard").header([
            "System",
            "Categories",
            "Coverage",
            "Accuracy (own label space)",
        ]);
    for r in rows {
        t.row([
            r.name,
            r.n_categories.to_string(),
            pct(r.coverage.frac()),
            pct(r.accuracy.frac()),
        ]);
    }
    t.render()
}

/// Run every experiment and concatenate the reports — the full paper
/// reproduction.
pub fn run_all(ctx: &ExperimentContext) -> String {
    [
        fig1(ctx),
        tab2(ctx),
        tab3(ctx),
        tab4(ctx),
        fig2(ctx),
        tab5(ctx),
        tab6(ctx),
        tab7(ctx),
        tab8(ctx),
        tab9(ctx),
        tab10(ctx),
        tab11(ctx),
        fig5_fig6(ctx),
        fig7(ctx),
        maintenance(ctx),
        telnet(ctx),
        disagreement(ctx),
        ml_cv_report(ctx),
        background_report(ctx),
        ablation_report(ctx),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdb_model::WorldSeed;
    use std::sync::OnceLock;

    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| ExperimentContext::standard(WorldSeed::new(424)))
    }

    #[test]
    fn every_report_renders_nonempty() {
        let c = ctx();
        for (name, report) in [
            ("fig1", fig1(c)),
            ("tab2", tab2(c)),
            ("fig2", fig2(c)),
            ("tab5", tab5(c)),
            ("tab6", tab6(c)),
            ("fig7", fig7(c)),
            ("telnet", telnet(c)),
        ] {
            assert!(
                report.lines().count() >= 3,
                "{name} report too small:\n{report}"
            );
        }
    }

    #[test]
    fn telnet_report_ranks_infrastructure_over_tech() {
        let c = ctx();
        let report = telnet(c);
        let tech_pos = report.find("Computer and Information Technology").unwrap();
        let util_pos = report.find("Utilities").unwrap();
        assert!(
            util_pos < tech_pos,
            "utilities should rank above tech:\n{report}"
        );
    }
}
