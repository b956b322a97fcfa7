//! Bulk WHOIS dump framing.
//!
//! ASdb ingests bulk WHOIS: per-registry dump files containing thousands of
//! records. This module renders and re-reads multi-record dumps, with a
//! registry banner line (`% <rir> bulk dump`) so a combined file can carry
//! records from all five registries. Framing is line-oriented text, read
//! whole: [`read_dump`] takes the complete dump.

use crate::object::{RpslObject, WhoisRecord};
use crate::parse::parse_dump;
use asdb_model::{Asn, Rir};
use std::str::FromStr;

/// Render records into a single dump string. Records are grouped by
/// registry, each group introduced by a `% <rir> bulk dump` banner.
pub fn write_dump(records: &[WhoisRecord]) -> String {
    let mut out = String::new();
    for rir in Rir::ALL {
        let group: Vec<&WhoisRecord> = records.iter().filter(|r| r.rir == rir).collect();
        if group.is_empty() {
            continue;
        }
        out.push_str(&format!("% {} bulk dump\n\n", rir.name()));
        for rec in group {
            for obj in &rec.objects {
                out.push_str(&obj.to_string());
                out.push('\n');
            }
        }
    }
    out
}

/// Read a dump produced by [`write_dump`] (or hand-written in the same
/// shape) back into records. Objects are grouped into a record starting at
/// each `aut-num`/`asnumber` object; registry attribution comes from the
/// most recent banner (defaulting to RIPE when absent, the largest
/// registry).
pub fn read_dump(input: &str) -> Vec<WhoisRecord> {
    let mut current_rir = Rir::Ripe;
    let mut records: Vec<WhoisRecord> = Vec::new();

    // Banners are comments, which the object parser skips, so scan them
    // separately and interleave by line position.
    let mut banner_at: Vec<(usize, Rir)> = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if let Some(rest) = line.strip_prefix('%') {
            let rest = rest.trim();
            if let Some(name) = rest.strip_suffix("bulk dump") {
                if let Ok(rir) = Rir::from_str(name.trim()) {
                    banner_at.push((i, rir));
                }
            }
        }
    }

    // Re-parse per banner-delimited region so attribution is exact.
    let lines: Vec<&str> = input.lines().collect();
    let mut regions: Vec<(Rir, String)> = Vec::new();
    if banner_at.is_empty() {
        regions.push((current_rir, input.to_owned()));
    } else {
        // Any prefix before the first banner belongs to the default RIR.
        if banner_at[0].0 > 0 {
            regions.push((current_rir, lines[..banner_at[0].0].join("\n")));
        }
        for (k, (start, rir)) in banner_at.iter().enumerate() {
            current_rir = *rir;
            let end = banner_at.get(k + 1).map(|(e, _)| *e).unwrap_or(lines.len());
            regions.push((current_rir, lines[*start..end].join("\n")));
        }
    }

    for (rir, text) in regions {
        let parsed = parse_dump(&text);
        let mut pending: Option<WhoisRecord> = None;
        for obj in parsed.objects {
            if let Some(asn) = object_asn(&obj) {
                if let Some(rec) = pending.take() {
                    records.push(rec);
                }
                pending = Some(WhoisRecord {
                    rir,
                    asn,
                    objects: vec![obj],
                });
            } else if let Some(rec) = pending.as_mut() {
                rec.objects.push(obj);
            }
            // Objects before any aut-num in a region are dropped; bulk
            // dumps always lead with the aut-num object.
        }
        if let Some(rec) = pending {
            records.push(rec);
        }
    }
    records
}

fn object_asn(obj: &RpslObject) -> Option<Asn> {
    obj.first("aut-num")
        .or_else(|| obj.first("asnumber"))
        .and_then(|v| Asn::from_str(v).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{serialize, Registration};
    use rand::check::{self, any_string, CASES};

    fn sample_records() -> Vec<WhoisRecord> {
        let mut recs = Vec::new();
        for (i, rir) in [Rir::Arin, Rir::Ripe, Rir::Ripe, Rir::Lacnic]
            .iter()
            .enumerate()
        {
            let mut reg = Registration::bare(Asn::new(1000 + i as u32), &format!("AS-NAME-{i}"));
            reg.org_name = Some(format!("Org {i}"));
            recs.push(serialize(*rir, &reg));
        }
        recs
    }

    #[test]
    fn write_read_roundtrip() {
        let recs = sample_records();
        let text = write_dump(&recs);
        let back = read_dump(&text);
        assert_eq!(back.len(), recs.len());
        // Grouped by RIR on write, so compare as sets of (rir, asn).
        let mut a: Vec<(Rir, Asn)> = recs.iter().map(|r| (r.rir, r.asn)).collect();
        let mut b: Vec<(Rir, Asn)> = back.iter().map(|r| (r.rir, r.asn)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn attribution_follows_banners() {
        let recs = sample_records();
        let text = write_dump(&recs);
        let back = read_dump(&text);
        for rec in &back {
            if rec.asn == Asn::new(1003) {
                assert_eq!(rec.rir, Rir::Lacnic);
            }
        }
    }

    #[test]
    fn bannerless_dump_defaults_to_ripe() {
        let back = read_dump("aut-num: AS99\nas-name: TEST\n");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].rir, Rir::Ripe);
    }

    #[test]
    fn connected_objects_attach_to_preceding_autnum() {
        let text = "aut-num: AS7\nas-name: X\n\norganisation: ORG-7\norg-name: Seven Ltd\n";
        let back = read_dump(text);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].objects.len(), 2);
        assert_eq!(
            back[0].organisation().unwrap().first("org-name"),
            Some("Seven Ltd")
        );
    }

    #[test]
    fn read_dump_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=1000),
            |s| {
                let _ = read_dump(&s);
            },
        );
    }
}
