//! Literal values (the paper's set `V`).
//!
//! Definition 2.1 names integers, reals, strings, dates and the truth values
//! ⊤/⊥ as examples of literals. We implement exactly those, plus `Null` used
//! only as the result of expressions over absent data (the paper's CASE
//! coalescing); `Null` never occurs inside a stored property set.
//!
//! Values have a *total* order (floats via IEEE total ordering) so every
//! grouping, deduplication and tie-break in the engine is deterministic.

use std::cmp::Ordering;
use std::fmt;

/// A date literal with day precision, ordered chronologically.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Date {
    /// Year (astronomical numbering).
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31.
    pub day: u8,
}

impl Date {
    /// Construct a date, validating month/day ranges (leap years included).
    pub fn new(year: i32, month: u8, day: u8) -> Option<Date> {
        if !(1..=12).contains(&month) {
            return None;
        }
        if day == 0 || day > days_in_month(year, month) {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Date> {
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = parts.next()?.parse().ok()?;
        let day: u8 = parts.next()?.parse().ok()?;
        Date::new(year, month, day)
    }
}

fn days_in_month(year: i32, month: u8) -> u8 {
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
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A literal value from the paper's domain `V`.
#[derive(Clone, Debug)]
pub enum Value {
    /// Truth values ⊤ / ⊥.
    Bool(bool),
    /// Integer literals.
    Int(i64),
    /// Real-number literals.
    Float(f64),
    /// String literals.
    Str(String),
    /// Date literals.
    Date(Date),
    /// Absence marker produced by expression evaluation only
    /// (never stored in a property set).
    Null,
}

impl Value {
    /// Shortcut for a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers widen to floats. `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Boolean view. `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view. `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view. `None` for non-integers.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }

    /// Semantic equality: `1 = 1.0` holds (numbers compare numerically),
    /// everything else compares structurally. `Null` equals nothing,
    /// including itself — mirroring the paper's "absent property" semantics.
    pub fn sem_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => false,
            (a, b) => a.total_cmp(b) == Ordering::Equal,
        }
    }

    /// Total order used for grouping, sorting and deterministic tie-breaks.
    /// Cross-type comparisons order by type rank; numbers compare
    /// numerically; floats use IEEE total ordering within themselves.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }

    /// Order comparison for `<`, `<=`, `>`, `>=`. `None` when the operands
    /// are of incomparable types or `Null`.
    pub fn partial_order(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(_), Int(_) | Float(_)) | (Float(_), Int(_) | Float(_)) => {
                Some(cmp_f64(self.as_f64()?, other.as_f64()?))
            }
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality (Null == Null) so Value can key maps/sets.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            (a, b) => a.total_cmp(b) == Ordering::Equal && a.rank() == b.rank(),
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
            .then_with(|| self.rank().cmp(&other.rank()))
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Numbers hash through their f64 value, as they compare, so
            // Int(1) and Float(1.0) — which compare equal — hash equal
            // too (see `number_word`).
            Value::Int(i) => {
                2u8.hash(state);
                number_word(*i as f64).hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                number_word(*f).hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

/// The word a number hashes as: an integral one its integer, any other
/// its bits mixed (the SplitMix64 finalizer). A hash table indexes by
/// the low bits, and the low bits of a simple number's f64 pattern are
/// all zero — its differences are in the exponent and the top of the
/// mantissa — so hashing the bits as they are would put 1, 2, 3 … or
/// 0.5, 1.5, 2.5 … in one bucket.
fn number_word(f: f64) -> u64 {
    if f.fract() == 0.0 {
        return f as i64 as u64;
    }
    let mut x = f.to_bits();
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_validation() {
        assert!(Date::new(2024, 2, 29).is_some());
        assert!(Date::new(2023, 2, 29).is_none());
        assert!(Date::new(2023, 13, 1).is_none());
        assert!(Date::new(2023, 4, 31).is_none());
        assert!(Date::new(1900, 2, 29).is_none()); // not a leap year
        assert!(Date::new(2000, 2, 29).is_some()); // leap year
    }

    #[test]
    fn date_parse_and_display_roundtrip() {
        let d = Date::parse("2014-12-01").unwrap();
        assert_eq!(d.to_string(), "2014-12-01");
        assert!(Date::parse("2014-13-01").is_none());
        assert!(Date::parse("garbage").is_none());
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int(1).sem_eq(&Value::Float(1.0)));
        assert!(!Value::Int(1).sem_eq(&Value::Float(1.5)));
        assert_eq!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn null_equals_nothing_semantically() {
        assert!(!Value::Null.sem_eq(&Value::Null));
        assert!(!Value::Null.sem_eq(&Value::Int(0)));
        // But structurally (for map keys) Null == Null.
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn partial_order_across_types_is_none() {
        assert!(Value::Int(1).partial_order(&Value::str("a")).is_none());
        assert!(Value::Bool(true).partial_order(&Value::Int(1)).is_none());
        assert_eq!(
            Value::Int(1).partial_order(&Value::Float(2.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_order_is_deterministic_across_types() {
        let mut vals = [
            Value::str("b"),
            Value::Int(2),
            Value::Bool(false),
            Value::Float(1.5),
            Value::str("a"),
            Value::Null,
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(false));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::str("a"));
        assert_eq!(vals[5], Value::str("b"));
    }

    #[test]
    fn int_and_equal_float_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&Value::Int(3)), h(&Value::Float(3.0)));
    }

    #[test]
    fn numbers_and_dates_spread_over_the_low_hash_bits() {
        use crate::hash::FxHasher;
        use std::hash::{Hash, Hasher};
        // A hash table indexes by the low bits of the hash: 2^15 distinct
        // values of one kind must reach most of the 1 024 values of the
        // low 10 bits, as they would under a random hash.
        let spread = |values: &mut dyn Iterator<Item = Value>| {
            let mut seen = vec![false; 1 << 10];
            for v in values {
                let mut h = FxHasher::default();
                v.hash(&mut h);
                seen[(h.finish() & 0x3ff) as usize] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        let n = 1i64 << 15;
        let days =
            (1900..).flat_map(|y| (1..=12).flat_map(move |m| (1..=31).map(move |d| (y, m, d))));
        let dates = days.filter_map(|(y, m, d)| Date::new(y, m, d));
        #[rustfmt::skip]
        let kinds: [(&str, Box<dyn Iterator<Item = Value>>); 5] = [
            ("ints", Box::new((0..n).map(Value::Int))),
            ("negative ints", Box::new((1..=n).map(|i| Value::Int(-i)))),
            ("integral floats", Box::new((0..n).map(|i| Value::Float(i as f64)))),
            ("halves", Box::new((0..n).map(|i| Value::Float(i as f64 + 0.5)))),
            ("dates", Box::new(dates.take(n as usize).map(Value::Date))),
        ];
        for (what, mut values) in kinds {
            let reached = spread(&mut values);
            assert!(reached >= 1000, "{what}: {reached} of 1 024 low-bit values");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
