//! A minimal calendar date for registration/churn modeling.
//!
//! The maintenance analysis (§5.3) needs day arithmetic ("an average 21 ASes
//! were registered every day … 140 ASes will need to be updated every week")
//! but nothing about time zones or clocks, so `Date` is simply a day count
//! since 1970-01-01 with proleptic-Gregorian conversion helpers.

use crate::error::{clip, ModelError};
use std::fmt;
use std::str::FromStr;

/// Days since the Unix epoch (1970-01-01), date-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Date(i32);

impl Date {
    /// The raw day count.
    pub const fn days(self) -> i32 {
        self.0
    }

    /// Build from a calendar date. Errors if the combination is invalid.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self, ModelError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(ModelError::InvalidDate {
                input: format!("{year:04}-{month:02}-{day:02}"),
            });
        }
        // Days from civil algorithm (Howard Hinnant's date algorithms).
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as i64;
        let mp = i64::from((month + 9) % 12);
        let doy = (153 * mp + 2) / 5 + i64::from(day) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Ok(Date((i64::from(era) * 146_097 + doe - 719_468) as i32))
    }

    /// Decompose into `(year, month, day)`.
    pub fn ymd(self) -> (i32, u32, u32) {
        // Inverse of the civil algorithm.
        let z = i64::from(self.0) + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    /// Add (or subtract, for negative `n`) days.
    pub fn plus_days(self, n: i32) -> Self {
        Date(self.0 + n)
    }
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

impl FromStr for Date {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let mut parts = t.split('-');
        let bad = || ModelError::InvalidDate { input: clip(s) };
        let y: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Date::from_ymd(y, m, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::check::{self, CASES};
    use rand::RngExt;

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().days(), 0);
    }

    #[test]
    fn known_dates() {
        // The paper's maintenance window: Oct 2020 – Feb 2021.
        let start = Date::from_ymd(2020, 10, 1).unwrap();
        let end = Date::from_ymd(2021, 2, 28).unwrap();
        assert_eq!(end.days() - start.days(), 150);
        assert_eq!(start.to_string(), "2020-10-01");
    }

    #[test]
    fn leap_years() {
        assert!(Date::from_ymd(2020, 2, 29).is_ok());
        assert!(Date::from_ymd(2021, 2, 29).is_err());
        assert!(Date::from_ymd(2000, 2, 29).is_ok());
        assert!(Date::from_ymd(1900, 2, 29).is_err());
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "2020",
            "2020-13-01",
            "2020-00-10",
            "2020-01-32",
            "2020-1-1-1",
            "x-y-z",
        ] {
            assert!(bad.parse::<Date>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ymd_roundtrip() {
        check::cases(
            CASES,
            |rng| rng.random_range(-200_000i32..200_000),
            |days| {
                let d = Date::default().plus_days(days);
                let (y, m, dd) = d.ymd();
                assert_eq!(Date::from_ymd(y, m, dd).unwrap(), d);
            },
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        check::cases(
            CASES,
            |rng| rng.random_range(-100_000i32..100_000),
            |days| {
                let d = Date::default().plus_days(days);
                let back: Date = d.to_string().parse().unwrap();
                assert_eq!(d, back);
            },
        );
    }

    #[test]
    fn plus_days_is_additive() {
        check::cases(
            CASES,
            |rng| {
                (
                    rng.random_range(-10_000i32..10_000),
                    rng.random_range(-500i32..500),
                    rng.random_range(-500i32..500),
                )
            },
            |(days, a, b)| {
                let d = Date::default().plus_days(days);
                assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
            },
        );
    }
}
