//! The released dataset format.
//!
//! "We will continually release the up-to-date ASdb dataset at
//! asdb.stanford.edu for research use." The dump is JSON-lines — one
//! record per AS with its NAICSlite labels and provenance — chosen because
//! the deliverable of this system *is* a machine-readable dataset.

use crate::pipeline::Classification;
use asdb_obs::json::Value;

/// Serialize classifications as JSON lines, one record per AS:
/// `{"asn":N,"layer1":[…],"layer2":[…],"stage":"…","sources":[…]}`, with a
/// trailing `"degraded":[…]` only when a source was unavailable. Layer-2
/// labels are fully qualified (`"<layer1 slug>/<subcategory>"`).
pub fn write_jsonl(classifications: &[Classification]) -> String {
    classifications
        .iter()
        .map(to_json)
        .collect::<Vec<_>>()
        .join("\n")
}

/// One record as a compact JSON line.
fn to_json(c: &Classification) -> String {
    let mut members = vec![
        ("asn".to_owned(), Value::Num(u64::from(c.asn.value()))),
        (
            "layer1".to_owned(),
            Value::strings(c.categories.layer1s().iter().map(|l| l.slug())),
        ),
        (
            "layer2".to_owned(),
            Value::strings(
                c.categories
                    .layer2s()
                    .iter()
                    .map(|l| format!("{}/{}", l.layer1.slug(), l.name())),
            ),
        ),
        ("stage".to_owned(), Value::Str(c.stage.label().to_owned())),
        (
            "sources".to_owned(),
            Value::strings(c.sources.iter().map(|s| s.name())),
        ),
    ];
    if !c.degraded.is_empty() {
        members.push((
            "degraded".to_owned(),
            Value::strings(c.degraded.iter().map(|s| s.name())),
        ));
    }
    Value::Obj(members).to_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Stage;
    use asdb_model::Asn;
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
    fn empty_dump() {
        assert_eq!(write_jsonl(&[]), "");
    }
}
