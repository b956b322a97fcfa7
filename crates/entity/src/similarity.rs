//! String-similarity primitives.
//!
//! All scores are in `[0, 1]`, higher = more similar. `name_similarity` is
//! the workhorse: a blend of character-level Jaro–Winkler and token-set
//! Jaccard over normalized organization names, tolerant of the legal-suffix
//! and word-order noise typical of WHOIS. [`NormName`] normalizes a name
//! once and bounds a score cheaply, for searches that score one name
//! against many.

/// Jaro similarity between two strings (by Unicode scalar values).
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    jaro_chars(&a, &b)
}

/// Jaro similarity over char slices: the core [`jaro`] and [`NormName`]
/// share.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let (m, t) = if b.len() <= 64 {
        jaro_matches_short(a, b, window)
    } else {
        jaro_matches(a, b, window)
    };
    if m == 0 {
        return 0.0;
    }
    let t = t as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// The Jaro match count and the number of matched chars out of order
/// (twice the transpositions): each char of `a` takes the first free equal
/// char of `b` within `window` of its position.
fn jaro_matches(a: &[char], b: &[char], window: usize) -> (usize, usize) {
    let mut b_taken = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::with_capacity(a.len().min(b.len()));
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    // Compare the matched sequences, each in its own string's order.
    let matches_b = b.iter().zip(&b_taken).filter(|(_, &t)| t).map(|(c, _)| c);
    let t = matches_a
        .iter()
        .zip(matches_b)
        .filter(|(x, y)| x != y)
        .count();
    (matches_a.len(), t)
}

/// [`jaro_matches`] for a `b` of at most 64 chars, on bit masks: the
/// positions of `b` per histogram bucket, so each char of `a` tests only
/// the free positions in its window that may hold it, lowest first.
fn jaro_matches_short(a: &[char], b: &[char], window: usize) -> (usize, usize) {
    let below = |n: usize| if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
    let mut at = [0u64; BUCKETS];
    for (j, &c) in b.iter().enumerate() {
        at[bucket(c)] |= 1 << j;
    }
    let mut b_taken = 0u64;
    let mut matches_a = ['\0'; 64];
    let mut m = 0;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        let mut free = at[bucket(ca)] & below(hi) & !below(lo) & !b_taken;
        while free != 0 {
            let j = free.trailing_zeros() as usize;
            if b[j] == ca {
                b_taken |= 1 << j;
                matches_a[m] = ca;
                m += 1;
                break;
            }
            free &= free - 1;
        }
    }
    let mut t = 0;
    let mut taken = b_taken;
    for &ca in &matches_a[..m] {
        let j = taken.trailing_zeros() as usize;
        t += usize::from(b[j] != ca);
        taken &= taken - 1;
    }
    (m, t)
}

/// Length of the common prefix Winkler boosts, capped at 4 chars.
fn winkler_prefix(a: &[char], b: &[char]) -> f64 {
    a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64
}

/// Jaro–Winkler: Jaro boosted for a shared prefix (up to 4 chars, standard
/// scaling 0.1).
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    winkler(jaro_chars(&a, &b), winkler_prefix(&a, &b))
}

fn winkler(j: f64, prefix: f64) -> f64 {
    j + prefix * 0.1 * (1.0 - j)
}

/// Jaccard similarity of lowercase alphanumeric token sets.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    token_terms(&tokens(a), &tokens(b)).0
}

/// The sorted, deduplicated lowercase alphanumeric tokens of a name.
fn tokens(s: &str) -> Vec<String> {
    let set: std::collections::BTreeSet<String> = s
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= 2)
        .map(str::to_lowercase)
        // Legal suffixes carry no identity: "Acme Corp" vs "Zenith Corp"
        // share nothing that matters.
        .filter(|t| !asdb_model::org::LEGAL_SUFFIXES.contains(&t.as_str()))
        .collect();
    set.into_iter().collect()
}

/// Token-set Jaccard and the subset bonus of two sorted, deduplicated
/// token sets.
fn token_terms(a: &[String], b: &[String]) -> (f64, f64) {
    terms_from_counts(a.len(), b.len(), shared_count(a, b))
}

/// How many tokens two sorted, deduplicated token sets share, from one
/// merge walk.
fn shared_count(a: &[String], b: &[String]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Token-set Jaccard and the subset bonus of two token sets of `la` and
/// `lb` tokens that share `inter` of them. Two empty sets are identical
/// (Jaccard 1); one empty set shares nothing.
pub fn terms_from_counts(la: usize, lb: usize, inter: usize) -> (f64, f64) {
    if la == 0 && lb == 0 {
        return (1.0, 0.0);
    }
    if la == 0 || lb == 0 {
        return (0.0, 0.0);
    }
    let union = la + lb - inter;
    // One name's tokens a subset of the other's: abbreviations and
    // dropped words.
    let subset_bonus = if inter == la || inter == lb {
        0.85
    } else {
        0.0
    };
    (inter as f64 / union as f64, subset_bonus)
}

/// The combined score from its three terms. Character-level similarity
/// alone is unreliable for unrelated names (Jaro–Winkler sits near 0.5 for
/// random English phrases), so it is discounted when the names share no
/// tokens at all.
fn blend(jw: f64, jaccard: f64, subset_bonus: f64) -> f64 {
    let jw_weighted = if jaccard > 0.0 {
        jw
    } else {
        jw * UNSHARED_JW_WEIGHT
    };
    jw_weighted.max(jaccard).max(subset_bonus)
}

/// The weight Jaro–Winkler keeps when two names share no token. Jaro–Winkler
/// is at most 1, so it is also the highest score two non-empty token sets
/// with no token in common can reach.
pub const UNSHARED_JW_WEIGHT: f64 = 0.75;

/// Histogram buckets for the Jaro match-count bound.
const BUCKETS: usize = 64;

/// Slack under which a bound still counts as reaching a floor, so float
/// rounding in the bound can never prune a tie.
pub const BOUND_SLACK: f64 = 1e-9;

fn bucket(c: char) -> usize {
    match c {
        'a'..='z' => c as usize - 'a' as usize,
        '0'..='9' => 26 + (c as usize - '0' as usize),
        _ => 36 + c as usize % (BUCKETS - 36),
    }
}

/// An organization name normalized once for repeated scoring: its
/// lowercased chars, its sorted, deduplicated token set and a char-count
/// histogram. [`NormName::similarity`] equals [`name_similarity`] of the
/// two original strings bit for bit.
#[derive(Debug, Clone)]
pub struct NormName {
    chars: Vec<char>,
    tokens: Vec<String>,
    /// Chars per bucket, saturating at `u8::MAX`.
    hist: [u8; BUCKETS],
}

impl NormName {
    /// Normalize a name.
    pub fn new(name: &str) -> NormName {
        let lower = name.to_lowercase();
        let chars: Vec<char> = lower.chars().collect();
        let mut hist = [0u8; BUCKETS];
        for &c in &chars {
            let n = &mut hist[bucket(c)];
            *n = n.saturating_add(1);
        }
        NormName {
            chars,
            tokens: tokens(&lower),
            hist,
        }
    }

    /// The combined name similarity (see [`name_similarity`]).
    pub fn similarity(&self, other: &NormName) -> f64 {
        self.similarity_sharing(other, shared_count(&self.tokens, &other.tokens))
    }

    /// An upper bound on [`NormName::similarity`] that skips the Jaro
    /// matching: the token terms are exact, and the Jaro match count is
    /// bounded by the histogram overlap with no transpositions.
    pub fn similarity_bound(&self, other: &NormName) -> f64 {
        self.similarity_bound_sharing(other, shared_count(&self.tokens, &other.tokens))
    }

    /// The similarity, or `None` when its upper bound proves it falls
    /// below `floor`. A score at or above `floor` is always returned.
    pub fn similarity_at_least(&self, other: &NormName, floor: f64) -> Option<f64> {
        let shared = shared_count(&self.tokens, &other.tokens);
        (self.similarity_bound_sharing(other, shared) + BOUND_SLACK >= floor)
            .then(|| self.similarity_sharing(other, shared))
    }

    /// [`NormName::similarity`] of a pair known to share `shared` tokens:
    /// a postings merge counts them for many entries at once, so no token
    /// merge walk runs.
    pub fn similarity_sharing(&self, other: &NormName, shared: usize) -> f64 {
        let (jaccard, subset_bonus) = self.terms_sharing(other, shared);
        blend(self.jaro_winkler(other), jaccard, subset_bonus)
    }

    /// [`NormName::similarity_bound`] of a pair known to share `shared`
    /// tokens.
    pub fn similarity_bound_sharing(&self, other: &NormName, shared: usize) -> f64 {
        let (jaccard, subset_bonus) = self.terms_sharing(other, shared);
        blend(self.jaro_winkler_bound(other), jaccard, subset_bonus)
    }

    /// The sorted, deduplicated token set the token terms are computed on.
    pub fn tokens(&self) -> &[String] {
        &self.tokens
    }

    fn terms_sharing(&self, other: &NormName, shared: usize) -> (f64, f64) {
        terms_from_counts(self.tokens.len(), other.tokens.len(), shared)
    }

    fn jaro_winkler(&self, other: &NormName) -> f64 {
        winkler(
            jaro_chars(&self.chars, &other.chars),
            winkler_prefix(&self.chars, &other.chars),
        )
    }

    /// Jaro–Winkler with the match count `m` replaced by
    /// `Σ min(hist_a, hist_b)` (equal chars share a bucket, so `m` cannot
    /// exceed it) and no transpositions; the prefix is exact. A bucket
    /// saturated on both sides may hold any count, so it contributes the
    /// whole length, and the sum is capped by `m ≤ min(len_a, len_b)`.
    fn jaro_winkler_bound(&self, other: &NormName) -> f64 {
        let (la, lb) = (self.chars.len(), other.chars.len());
        let jaro = if la == 0 || lb == 0 {
            jaro_chars(&self.chars, &other.chars)
        } else {
            let overlap = if la.min(lb) < usize::from(u8::MAX) {
                // No bucket of the shorter name saturates, so the plain
                // overlap is exact and within its length.
                let pairs = self.hist.iter().zip(&other.hist);
                pairs.map(|(&x, &y)| u32::from(x.min(y))).sum::<u32>() as usize
            } else {
                self.hist
                    .iter()
                    .zip(&other.hist)
                    .map(|(&x, &y)| {
                        if x == u8::MAX && y == u8::MAX {
                            la
                        } else {
                            usize::from(x.min(y))
                        }
                    })
                    .sum::<usize>()
                    .min(la.min(lb))
            };
            if overlap == 0 {
                0.0
            } else {
                let m = overlap as f64;
                (m / la as f64 + m / lb as f64 + 1.0) / 3.0
            }
        };
        winkler(jaro, winkler_prefix(&self.chars, &other.chars))
    }
}

/// Combined organization-name similarity: the max of token-set Jaccard and
/// whole-string Jaro–Winkler over lowercased input, with a partial-credit
/// boost when one name's tokens are a subset of the other's (abbreviations,
/// dropped suffixes). Scoring one name against many is cheaper through
/// [`NormName`].
pub fn name_similarity(a: &str, b: &str) -> f64 {
    NormName::new(a).similarity(&NormName::new(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, class_string, CASES};
    use rand::RngExt;

    #[test]
    fn jaro_known_values() {
        // Classic reference pair.
        let v = jaro("martha", "marhta");
        assert!((v - 0.944444).abs() < 1e-4, "{v}");
        let v = jaro("dixon", "dicksonx");
        assert!((v - 0.766667).abs() < 1e-4, "{v}");
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("abc", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        let v = jaro_winkler("martha", "marhta");
        assert!((v - 0.961111).abs() < 1e-4, "{v}");
        // Prefix boost makes it ≥ jaro.
        assert!(jaro_winkler("prefixed", "prefixes") >= jaro("prefixed", "prefixes"));
    }

    #[test]
    fn token_jaccard_basics() {
        assert_eq!(token_jaccard("alpha beta", "beta alpha"), 1.0);
        assert_eq!(token_jaccard("alpha beta", "gamma delta"), 0.0);
        let half = token_jaccard("alpha beta", "alpha gamma");
        assert!((half - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(token_jaccard("", ""), 1.0);
        assert_eq!(token_jaccard("abc", ""), 0.0);
    }

    #[test]
    fn name_similarity_handles_whois_noise() {
        // Dropped legal suffix.
        assert!(name_similarity("Level 3 Parent, LLC", "Level 3 Parent") > 0.8);
        // Word-order shuffle.
        assert!(name_similarity("Telekom Deutsche", "Deutsche Telekom") > 0.8);
        // Unrelated names score low.
        assert!(name_similarity("Panama Canal Authority", "Acme Hosting") < 0.5);
        // Abbreviation subset.
        assert!(name_similarity("SUMIDA Romania", "SUMIDA Romania SRL Factory Division") > 0.8);
    }

    #[test]
    fn similar_beats_dissimilar_for_title_matching() {
        // The Table 5 scenario: pick the domain whose homepage title best
        // matches the AS name.
        let as_name = "ACMENET";
        let right = name_similarity(as_name, "Acmenet Communications — fiber and broadband");
        let wrong = name_similarity(as_name, "Gmail — email from Google");
        assert!(right > wrong);
    }

    #[test]
    fn bound_holds_past_histogram_saturation() {
        let long = "a".repeat(300);
        for other in ["a".repeat(280), "a".repeat(100), "ab".repeat(200)] {
            let (x, y) = (NormName::new(&long), NormName::new(&other));
            let score = x.similarity(&y);
            assert_eq!(score.to_bits(), name_similarity(&long, &other).to_bits());
            assert!(x.similarity_bound(&y) >= score, "{}", other.len());
        }
    }

    #[test]
    fn short_match_masks_equal_the_plain_scan() {
        // Small alphabets make many matches and transpositions; non-ASCII
        // chars share histogram buckets with each other.
        check::cases(
            CASES * 4,
            |rng| {
                let class = ["ab", "a-e ", "a-z0-9"][rng.random_range(0..3)];
                let a = if rng.random_bool(0.2) {
                    any_string(rng, 1..=80)
                } else {
                    class_string(rng, class, 1..=80)
                };
                let b = if rng.random_bool(0.2) {
                    any_string(rng, 1..=64)
                } else {
                    class_string(rng, class, 1..=64)
                };
                (a, b)
            },
            |(a, b)| {
                let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
                if b.len() > 64 {
                    return;
                }
                let window = (a.len().max(b.len()) / 2).saturating_sub(1);
                assert_eq!(
                    jaro_matches_short(&a, &b, window),
                    jaro_matches(&a, &b, window)
                );
            },
        );
    }

    #[test]
    fn scores_bounded() {
        check::cases(
            CASES,
            |rng| (any_string(rng, 0..=40), any_string(rng, 0..=40)),
            |(a, b)| {
                for f in [jaro, jaro_winkler, token_jaccard, name_similarity] {
                    let v = f(&a, &b);
                    assert!((0.0..=1.0).contains(&v), "{v}");
                }
            },
        );
    }

    #[test]
    fn identity_scores_one() {
        check::cases(
            CASES,
            |rng| class_string(rng, "a-z", 1..=20),
            |a| {
                assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
                assert!((name_similarity(&a, &a) - 1.0).abs() < 1e-12);
            },
        );
    }

    #[test]
    fn symmetry() {
        check::cases(
            CASES,
            |rng| {
                (
                    class_string(rng, "a-z ", 0..=25),
                    class_string(rng, "a-z ", 0..=25),
                )
            },
            |(a, b)| {
                assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
                assert!((token_jaccard(&a, &b) - token_jaccard(&b, &a)).abs() < 1e-12);
            },
        );
    }
}
