//! The released dataset format.
//!
//! "We will continually release the up-to-date ASdb dataset at
//! asdb.stanford.edu for research use." The dump is JSON-lines — one
//! record per AS with its NAICSlite labels and provenance — chosen because
//! the deliverable of this system *is* a machine-readable dataset.

use crate::pipeline::Classification;
use asdb_model::Asn;
use asdb_obs::json::{self, Value};

/// One line of the released dataset:
/// `{"asn":N,"layer1":[…],"layer2":[…],"stage":"…","sources":[…]}`, with a
/// trailing `"degraded":[…]` only when a source was unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRecord {
    /// The AS number.
    pub asn: Asn,
    /// Layer-1 category slugs.
    pub layer1: Vec<String>,
    /// Fully-qualified layer-2 labels (`"<layer1 slug>/<subcategory>"`).
    pub layer2: Vec<String>,
    /// Which pipeline stage produced the labels.
    pub stage: String,
    /// Contributing sources.
    pub sources: Vec<String>,
    /// Sources that were unavailable when the record was produced (absent
    /// in dumps from healthy runs and in pre-transport dumps).
    pub degraded: Vec<String>,
}

impl DatasetRecord {
    /// Project a pipeline [`Classification`] into the release shape.
    pub fn from_classification(c: &Classification) -> DatasetRecord {
        DatasetRecord {
            asn: c.asn,
            layer1: c
                .categories
                .layer1s()
                .iter()
                .map(|l| l.slug().to_owned())
                .collect(),
            layer2: c
                .categories
                .layer2s()
                .iter()
                .map(|l| format!("{}/{}", l.layer1.slug(), l.name()))
                .collect(),
            stage: c.stage.label().to_owned(),
            sources: c.sources.iter().map(|s| s.name().to_owned()).collect(),
            degraded: c.degraded.iter().map(|s| s.name().to_owned()).collect(),
        }
    }

    /// The record as one compact JSON line.
    fn to_json(&self) -> String {
        let mut members = vec![
            ("asn".to_owned(), Value::Num(u64::from(self.asn.value()))),
            ("layer1".to_owned(), Value::strings(&self.layer1)),
            ("layer2".to_owned(), Value::strings(&self.layer2)),
            ("stage".to_owned(), Value::Str(self.stage.clone())),
            ("sources".to_owned(), Value::strings(&self.sources)),
        ];
        if !self.degraded.is_empty() {
            members.push(("degraded".to_owned(), Value::strings(&self.degraded)));
        }
        Value::Obj(members).to_compact()
    }

    /// Parse one JSON line. Unknown keys are ignored; a missing
    /// `degraded` reads as empty.
    fn from_json(line: &str) -> Result<DatasetRecord, json::Error> {
        let v = json::parse(line)?;
        let asn = v.field("asn")?.as_u64()?;
        let asn = u32::try_from(asn)
            .map_err(|_| json::Error::new(format!("asn {asn} is out of range")))?;
        Ok(DatasetRecord {
            asn: Asn::new(asn),
            layer1: v.field("layer1")?.to_strings()?,
            layer2: v.field("layer2")?.to_strings()?,
            stage: v.field("stage")?.as_str()?.to_owned(),
            sources: v.field("sources")?.to_strings()?,
            degraded: match v.get("degraded")? {
                Some(d) => d.to_strings()?,
                None => Vec::new(),
            },
        })
    }
}

/// Serialize classifications as JSON lines.
pub fn write_jsonl(classifications: &[Classification]) -> String {
    classifications
        .iter()
        .map(|c| DatasetRecord::from_classification(c).to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Parse a JSON-lines dump. Malformed lines are skipped and counted.
pub fn read_jsonl(input: &str) -> (Vec<DatasetRecord>, usize) {
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for line in input.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match DatasetRecord::from_json(line) {
            Ok(r) => out.push(r),
            Err(_) => skipped += 1,
        }
    }
    (out, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Stage;
    use asdb_sources::SourceId;
    use asdb_taxonomy::naicslite::known;
    use asdb_taxonomy::{Category, CategorySet};

    fn sample() -> Classification {
        Classification {
            asn: Asn::new(3356),
            categories: CategorySet::single(Category::l2(known::isp())),
            stage: Stage::MultiAgree,
            sources: vec![SourceId::Dnb, SourceId::Zvelo],
            chosen_domain: None,
            ml: None,
            match_labels: Vec::new(),
            degraded: Vec::new(),
        }
    }

    #[test]
    fn roundtrip() {
        let dump = write_jsonl(&[sample(), sample()]);
        let (records, skipped) = read_jsonl(&dump);
        assert_eq!(records.len(), 2);
        assert_eq!(skipped, 0);
        assert_eq!(records[0].asn, Asn::new(3356));
        assert_eq!(records[0].layer1, vec!["tech"]);
        assert!(records[0].layer2[0].contains("Internet Service Provider"));
        assert_eq!(records[0].sources, vec!["D&B", "Zvelo"]);
    }

    #[test]
    fn malformed_lines_skipped() {
        let dump = format!("{}\nnot json\n\n", write_jsonl(&[sample()]));
        let (records, skipped) = read_jsonl(&dump);
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
    }

    /// The released format, byte for byte: keys in this order, no
    /// whitespace, `degraded` only when a source was unavailable.
    #[test]
    fn write_jsonl_emits_the_released_bytes() {
        let mut degraded = sample();
        degraded.degraded = vec![SourceId::Crunchbase];
        assert_eq!(
            write_jsonl(&[sample(), degraded]),
            concat!(
                r#"{"asn":3356,"layer1":["tech"],"layer2":["tech/Internet Service Provider (ISP)"],"#,
                r#""stage":">=2 Sources Matched - >=2 Agree","sources":["D&B","Zvelo"]}"#,
                "\n",
                r#"{"asn":3356,"layer1":["tech"],"layer2":["tech/Internet Service Provider (ISP)"],"#,
                r#""stage":">=2 Sources Matched - >=2 Agree","sources":["D&B","Zvelo"],"#,
                r#""degraded":["Crunchbase"]}"#,
            )
        );
    }

    #[test]
    fn read_jsonl_accepts_escapes_whitespace_and_unknown_keys() {
        let line = concat!(
            r#" { "asn" : 64500 , "note": {"a": [1, true, null, -2.5e3]}, "#,
            r#""layer1": [ "tech" ],"layer2":[],"stage":"q\"b\\s\u00e9\ud83d\ude00","#,
            "\t\"sources\":[\"D&B\"], \"version\": 2 }\r",
        );
        let (records, skipped) = read_jsonl(line);
        assert_eq!(skipped, 0);
        assert_eq!(
            records,
            [DatasetRecord {
                asn: Asn::new(64500),
                layer1: vec!["tech".into()],
                layer2: vec![],
                stage: "q\"b\\sé😀".into(),
                sources: vec!["D&B".into()],
                degraded: vec![],
            }]
        );
        let with_degraded =
            r#"{"asn":1,"layer1":[],"layer2":[],"stage":"","sources":[],"degraded":["Zvelo"]}"#;
        assert_eq!(read_jsonl(with_degraded).0[0].degraded, ["Zvelo"]);
    }

    #[test]
    fn read_jsonl_skips_every_malformed_record() {
        let good = write_jsonl(&[sample()]);
        let bad = [
            good[..good.len() - 1].to_owned(),
            good[..20].to_owned(),
            format!("{good} x"),
            format!("{good}{good}"),
            good.replace("3356", "-1"),
            good.replace("3356", "4294967296"),
            good.replace("3356", "99999999999999999999"),
            good.replace("3356", "3356.0"),
            good.replace("3356", "\"3356\""),
            good.replace(r#""stage""#, r#""stag""#),
            good.replace(r#"["tech"]"#, "[7]"),
            good.replace(r#"["tech"]"#, r#"["tech",]"#),
            good.replace(r#""sources""#, r#""asn":1,"sources""#),
            good.replace(r#"}"#, r#","degraded":null}"#),
            "null".to_owned(),
            "[]".to_owned(),
            "\"\\ud800\"".to_owned(),
        ];
        let (records, skipped) = read_jsonl(&bad.join("\n"));
        assert!(records.is_empty(), "{records:?}");
        assert_eq!(skipped, bad.len());
    }

    /// Arbitrary text and damaged records never panic the reader; every
    /// non-blank line is either a record or counted as skipped.
    #[test]
    fn read_jsonl_never_panics() {
        use rand::check::{self, any_string, CASES};
        use rand::RngExt;
        let good = write_jsonl(&[sample()]);
        check::cases(
            CASES,
            |rng| {
                let mut damaged: Vec<char> = good.chars().collect();
                for _ in 0..rng.random_range(1..4) {
                    let at = rng.random_range(0..damaged.len());
                    match rng.random_range(0..3) {
                        0 => damaged.truncate(at),
                        1 => damaged.insert(at, check::any_char(rng)),
                        _ => {
                            damaged.remove(at);
                        }
                    }
                    if damaged.is_empty() {
                        damaged.push('{');
                    }
                }
                format!(
                    "{}\n{}",
                    any_string(rng, 0..=200),
                    damaged.into_iter().collect::<String>()
                )
            },
            |dump| {
                let (records, skipped) = read_jsonl(&dump);
                let lines = dump.lines().filter(|l| !l.trim().is_empty()).count();
                assert_eq!(records.len() + skipped, lines);
            },
        );
    }

    #[test]
    fn empty_dump() {
        let (records, skipped) = read_jsonl("");
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }
}
