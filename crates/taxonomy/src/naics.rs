//! The North American Industry Classification System (NAICS).
//!
//! NAICS is the "de facto U.S. federal standard for classifying industries"
//! (§3.2): a hierarchical system of 2-digit sectors refined down to 6-digit
//! national industries, defined across a 517-page manual with over 2,000
//! categories. ASdb consumes NAICS codes from Dun & Bradstreet and ZoomInfo
//! and immediately translates them to NAICSlite; this module provides the
//! validated code type, sector structure, and a catalog subset with titles —
//! including every code the paper cites and the near-synonym sibling codes
//! that drive labeler disagreement (Figure 1) and D&B's ISP/hosting
//! ambiguity (§3.3).

use std::fmt;
use std::str::FromStr;

/// A NAICS code of 2–6 digits.
///
/// Stored as the numeric value plus its digit count, so `22` (Utilities,
/// the sector) and `221122` (Electric Power Distribution, the national
/// industry) are distinct values with a prefix relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NaicsCode {
    value: u32,
    digits: u8,
}

/// Error for malformed NAICS codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidNaics(pub String);

impl fmt::Display for InvalidNaics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid NAICS code: {:?}", self.0)
    }
}

impl std::error::Error for InvalidNaics {}

impl NaicsCode {
    /// Build from a numeric value and digit count (2–6 digits, value must
    /// fit the count and not have a leading zero).
    pub fn new(value: u32, digits: u8) -> Result<NaicsCode, InvalidNaics> {
        if !(2..=6).contains(&digits) {
            return Err(InvalidNaics(format!("{value} ({digits} digits)")));
        }
        let lo = 10u32.pow(u32::from(digits) - 1);
        let hi = 10u32.pow(u32::from(digits)) - 1;
        if value < lo || value > hi {
            return Err(InvalidNaics(format!("{value} ({digits} digits)")));
        }
        Ok(NaicsCode { value, digits })
    }

    /// Convenience constructor for a full 6-digit national industry code.
    pub fn six(value: u32) -> NaicsCode {
        NaicsCode::new(value, 6).expect("caller passes a 6-digit code")
    }

    /// Convenience constructor for a 2-digit sector code.
    pub fn sector_code(value: u32) -> NaicsCode {
        NaicsCode::new(value, 2).expect("caller passes a 2-digit code")
    }

    /// Numeric value.
    pub fn value(self) -> u32 {
        self.value
    }

    /// Digit count (2–6).
    pub fn digits(self) -> u8 {
        self.digits
    }

    /// The 2-digit sector this code belongs to.
    pub fn sector(self) -> u32 {
        self.value / 10u32.pow(u32::from(self.digits) - 2)
    }

    /// Truncate to the first `n` digits (n ≤ digits).
    pub fn prefix(self, n: u8) -> NaicsCode {
        assert!(n >= 2 && n <= self.digits, "prefix length out of range");
        NaicsCode {
            value: self.value / 10u32.pow(u32::from(self.digits - n)),
            digits: n,
        }
    }

    /// Whether `self` is a (non-strict) hierarchical prefix of `other`.
    pub fn is_prefix_of(self, other: NaicsCode) -> bool {
        self.digits <= other.digits && other.prefix(self.digits) == self
    }

    /// Official title if the code is in the bundled catalog.
    pub fn title(self) -> Option<&'static str> {
        CATALOG
            .iter()
            .find(|(c, _, _)| *c == self.value && usize::from(self.digits) == digit_count(*c))
            .map(|(_, t, _)| *t)
    }
}

fn digit_count(v: u32) -> usize {
    if v == 0 {
        1
    } else {
        (v.ilog10() + 1) as usize
    }
}

impl fmt::Display for NaicsCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl FromStr for NaicsCode {
    type Err = InvalidNaics;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) || t.len() > 6 || t.len() < 2 {
            return Err(InvalidNaics(t.chars().take(16).collect()));
        }
        let value: u32 = t.parse().map_err(|_| InvalidNaics(t.to_owned()))?;
        NaicsCode::new(value, t.len() as u8)
    }
}

/// Catalog entry: `(code, title, cited_in_paper)`.
///
/// A representative subset of the NAICS manual: every code the paper cites,
/// the redundant sibling groups that drive Figure 1's disagreement, and at
/// least one code for each NAICSlite layer-2 category so the translation
/// tables (see [`crate::translate`]) are fully exercised.
pub static CATALOG: &[(u32, &str, bool)] = &[
    // --- Codes cited in the paper ----------------------------------------
    (517911, "Telecommunications Resellers", true),
    (541512, "Computer Systems Design Services", true),
    (519190, "All Other Information Services", true),
    (335911, "Storage Battery Manufacturing", true),
    (
        334416,
        "Capacitor, Resistor, Coil, Transformer, and Other Inductor Manufacturing",
        true,
    ),
    // --- Information sector (51) ------------------------------------------
    (517311, "Wired Telecommunications Carriers", false),
    (
        517312,
        "Wireless Telecommunications Carriers (except Satellite)",
        false,
    ),
    (517410, "Satellite Telecommunications", false),
    (517919, "All Other Telecommunications", false),
    (
        518210,
        "Data Processing, Hosting, and Related Services",
        false,
    ),
    (
        519130,
        "Internet Publishing and Broadcasting and Web Search Portals",
        false,
    ),
    (511210, "Software Publishers", false),
    (512110, "Motion Picture and Video Production", false),
    (512250, "Record Production and Distribution", false),
    (515120, "Television Broadcasting", false),
    (515111, "Radio Networks", false),
    (511110, "Newspaper Publishers", false),
    (511130, "Book Publishers", false),
    (519120, "Libraries and Archives", false),
    // --- Professional services (54) ----------------------------------------
    (541511, "Custom Computer Programming Services", false),
    (541513, "Computer Facilities Management Services", false),
    (541519, "Other Computer Related Services", false),
    (
        541690,
        "Other Scientific and Technical Consulting Services",
        false,
    ),
    (541110, "Offices of Lawyers", false),
    (541211, "Offices of Certified Public Accountants", false),
    (541214, "Payroll Services", false),
    (
        541611,
        "Administrative Management Consulting Services",
        false,
    ),
    (
        541715,
        "R&D in the Physical, Engineering, and Life Sciences",
        false,
    ),
    (541720, "R&D in the Social Sciences and Humanities", false),
    // --- Finance (52) -------------------------------------------------------
    (522110, "Commercial Banking", false),
    (522210, "Credit Card Issuing", false),
    (522292, "Real Estate Credit", false),
    (524113, "Direct Life Insurance Carriers", false),
    (524210, "Insurance Agencies and Brokerages", false),
    (523920, "Portfolio Management", false),
    (525110, "Pension Funds", false),
    (
        522320,
        "Financial Transactions Processing and Clearing",
        false,
    ),
    // --- Education (61) -----------------------------------------------------
    (611110, "Elementary and Secondary Schools", false),
    (
        611310,
        "Colleges, Universities, and Professional Schools",
        false,
    ),
    (611420, "Computer Training", false),
    (611691, "Exam Preparation and Tutoring", false),
    (611512, "Flight Training", false),
    // --- Health care & social assistance (62) -------------------------------
    (622110, "General Medical and Surgical Hospitals", false),
    (621511, "Medical Laboratories", false),
    (623110, "Nursing Care Facilities", false),
    (621610, "Home Health Care Services", false),
    (624221, "Temporary Shelters", false),
    (624410, "Child Day Care Services", false),
    // --- Utilities (22) ------------------------------------------------------
    (221122, "Electric Power Distribution", false),
    (
        221121,
        "Electric Bulk Power Transmission and Control",
        false,
    ),
    (221210, "Natural Gas Distribution", false),
    (221310, "Water Supply and Irrigation Systems", false),
    (221320, "Sewage Treatment Facilities", false),
    (221330, "Steam and Air-Conditioning Supply", false),
    // --- Agriculture & mining (11, 21) --------------------------------------
    (111110, "Soybean Farming", false),
    (111419, "Other Food Crops Grown Under Cover", false),
    (112111, "Beef Cattle Ranching and Farming", false),
    (112511, "Finfish Farming and Fish Hatcheries", false),
    (113310, "Logging", false),
    (212114, "Surface Coal Mining", false),
    (211120, "Crude Petroleum Extraction", false),
    (324110, "Petroleum Refineries", false),
    // --- Construction & real estate (23, 53) ---------------------------------
    (236115, "New Single-Family Housing Construction", false),
    (
        236220,
        "Commercial and Institutional Building Construction",
        false,
    ),
    (237310, "Highway, Street, and Bridge Construction", false),
    (237130, "Power and Communication Line Construction", false),
    (531210, "Offices of Real Estate Agents and Brokers", false),
    (
        531110,
        "Lessors of Residential Buildings and Dwellings",
        false,
    ),
    // --- Arts, entertainment (71) --------------------------------------------
    (712110, "Museums", false),
    (712130, "Zoos and Botanical Gardens", false),
    (711211, "Sports Teams and Clubs", false),
    (713110, "Amusement and Theme Parks", false),
    (713210, "Casinos (except Casino Hotels)", false),
    (713940, "Fitness and Recreational Sports Centers", false),
    (711130, "Musical Groups and Artists", false),
    // --- Accommodation & food (72) --------------------------------------------
    (721110, "Hotels (except Casino Hotels) and Motels", false),
    (
        721211,
        "RV (Recreational Vehicle) Parks and Campgrounds",
        false,
    ),
    (721310, "Rooming and Boarding Houses, Dormitories", false),
    (722511, "Full-Service Restaurants", false),
    // --- Transportation (48-49) -------------------------------------------------
    (481111, "Scheduled Passenger Air Transportation", false),
    (482111, "Line-Haul Railroads", false),
    (483111, "Deep Sea Freight Transportation", false),
    (484121, "General Freight Trucking, Long-Distance", false),
    (485210, "Interurban and Rural Bus Transportation", false),
    (491110, "Postal Service", false),
    (492110, "Couriers and Express Delivery Services", false),
    (
        481212,
        "Nonscheduled Chartered Freight Air Transportation",
        false,
    ),
    (
        487210,
        "Scenic and Sightseeing Transportation, Water",
        false,
    ),
    (927110, "Space Research and Technology", false),
    // --- Retail & wholesale (42, 44-45) ------------------------------------------
    (445110, "Supermarkets and Other Grocery Stores", false),
    (448120, "Women's Clothing Stores", false),
    (454110, "Electronic Shopping and Mail-Order Houses", false),
    (
        423430,
        "Computer and Computer Peripheral Equipment Merchant Wholesalers",
        false,
    ),
    // --- Manufacturing (31-33) -----------------------------------------------------
    (336111, "Automobile Manufacturing", false),
    (311230, "Breakfast Cereal Manufacturing", false),
    (313210, "Broadwoven Fabric Mills", false),
    (333120, "Construction Machinery Manufacturing", false),
    (325412, "Pharmaceutical Preparation Manufacturing", false),
    (334111, "Electronic Computer Manufacturing", false),
    (
        334413,
        "Semiconductor and Related Device Manufacturing",
        false,
    ),
    // --- Government (92) --------------------------------------------------------------
    (928110, "National Security", false),
    (922120, "Police Protection", false),
    (921110, "Executive Offices", false),
    (923130, "Administration of Human Resource Programs", false),
    // --- Nonprofits & religious (81) ----------------------------------------------------
    (813110, "Religious Organizations", false),
    (813311, "Human Rights Organizations", false),
    (
        813312,
        "Environment, Conservation and Wildlife Organizations",
        false,
    ),
    (813410, "Civic and Social Organizations", false),
    // --- Services (56, 81) ------------------------------------------------------------------
    (561612, "Security Guards and Patrol Services", false),
    (561720, "Janitorial Services", false),
    (561730, "Landscaping Services", false),
    (811111, "General Automotive Repair", false),
    (812111, "Barber Shops", false),
    (812310, "Coin-Operated Laundries and Drycleaners", false),
];

/// Near-synonym sibling groups: sets of distinct 6-digit codes that expert
/// labelers plausibly use interchangeably for the same organization. These
/// drive the simulated NAICS-level disagreement in Figure 1 — e.g. the
/// paper's AS56885 (SUMIDA Romania SRL) was labeled 335911 by one researcher
/// and 334416 by the other.
pub static CONFUSABLE_SIBLINGS: &[&[u32]] = &[
    // The paper's own example: battery vs. inductor manufacturing.
    &[335911, 334416, 334413],
    // D&B's interchangeable ISP/hosting codes (§3.3).
    &[517911, 541512, 519190],
    // Telecom carriers: wired / wireless / other.
    &[517311, 517312, 517919],
    // Computer services: programming / systems design / facilities / other.
    &[541511, 541512, 541513, 541519],
    // Hosting vs. internet publishing vs. other information services.
    &[518210, 519130, 519190],
    // Banking vs. card issuing vs. transaction processing.
    &[522110, 522210, 522320],
    // Insurance carriers vs. agencies.
    &[524113, 524210],
    // R&D physical vs. social sciences.
    &[541715, 541720],
    // Electric distribution vs. transmission.
    &[221122, 221121],
    // Residential vs. commercial construction.
    &[236115, 236220],
    // Lawyers vs. management consulting (generic "professional services").
    &[541110, 541611],
    // Couriers vs. postal service.
    &[491110, 492110],
    // Grocery retail vs. e-commerce.
    &[445110, 454110],
];

/// The sibling group containing `code`, if any.
pub fn confusable_group(code: NaicsCode) -> Option<&'static [u32]> {
    CONFUSABLE_SIBLINGS
        .iter()
        .copied()
        .find(|group| group.contains(&code.value()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, any_string, CASES};
    use rand::RngExt;

    #[test]
    fn constructors_validate() {
        assert!(NaicsCode::new(51, 2).is_ok());
        assert!(NaicsCode::new(517911, 6).is_ok());
        assert!(NaicsCode::new(51, 6).is_err()); // too few digits for count
        assert!(NaicsCode::new(1234567, 6).is_err()); // too many
        assert!(NaicsCode::new(5, 1).is_err()); // digit count out of range
    }

    #[test]
    fn sector_and_prefix() {
        let c = NaicsCode::six(517911);
        assert_eq!(c.sector(), 51);
        assert_eq!(c.prefix(3).value(), 517);
        assert_eq!(c.prefix(6), c);
        assert!(NaicsCode::sector_code(51).is_prefix_of(c));
        assert!(!NaicsCode::sector_code(52).is_prefix_of(c));
        assert!(c.is_prefix_of(c));
    }

    #[test]
    fn parses_and_displays() {
        let c: NaicsCode = "517911".parse().unwrap();
        assert_eq!(c, NaicsCode::six(517911));
        assert_eq!(c.to_string(), "517911");
        assert!("".parse::<NaicsCode>().is_err());
        assert!("5".parse::<NaicsCode>().is_err());
        assert!("51791x".parse::<NaicsCode>().is_err());
        assert!("1234567".parse::<NaicsCode>().is_err());
    }

    #[test]
    fn catalog_has_cited_codes_with_titles() {
        for code in [517911, 541512, 519190, 335911, 334416] {
            let c = NaicsCode::six(code);
            assert!(c.title().is_some(), "code {code} must be in catalog");
        }
        assert_eq!(
            NaicsCode::six(517911).title().unwrap(),
            "Telecommunications Resellers"
        );
    }

    /// The 2-digit NAICS 2017 sectors.
    const SECTORS: [u32; 24] = [
        11, 21, 22, 23, 31, 32, 33, 42, 44, 45, 48, 49, 51, 52, 53, 54, 55, 56, 61, 62, 71, 72, 81,
        92,
    ];

    #[test]
    fn catalog_codes_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (code, title, _) in CATALOG {
            assert!(seen.insert(*code), "duplicate catalog code {code}");
            assert!(!title.is_empty());
            let parsed = NaicsCode::new(*code, digit_count(*code) as u8).unwrap();
            assert!(SECTORS.contains(&parsed.sector()), "code {code}");
        }
    }

    #[test]
    fn confusable_groups_contain_paper_example() {
        let g = confusable_group(NaicsCode::six(335911)).unwrap();
        assert!(g.contains(&334416));
        assert!(confusable_group(NaicsCode::six(722511)).is_none());
    }

    #[test]
    fn parse_never_panics() {
        check::cases(
            CASES,
            |rng| any_string(rng, 0..=12),
            |s| {
                let _ = s.parse::<NaicsCode>();
            },
        );
    }

    #[test]
    fn prefix_is_idempotent_on_own_length() {
        check::cases(
            CASES,
            |rng| rng.random_range(100_000u32..999_999),
            |v| {
                let c = NaicsCode::six(v);
                assert_eq!(c.prefix(6), c);
                assert!(c.prefix(2).is_prefix_of(c));
                assert_eq!(c.prefix(2).value(), c.sector());
            },
        );
    }
}
