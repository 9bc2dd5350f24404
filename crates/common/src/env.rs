//! Graceful environment-variable parsing shared by every harness.
//!
//! The harness knobs (`ZERODEV_THREADS`, `ZERODEV_QUICK`, `ZERODEV_AUDIT`,
//! and the soak driver's own) are read in several binaries; a typo must
//! never silently change behaviour or abort a multi-hour sweep. Every
//! reader funnels through these helpers: an unparsable value earns a
//! warning on stderr and the documented default, never a panic and never
//! silence. Nothing is remembered between reads, so a program that reads a
//! bad value N times warns N times.
//!
//! The parsing core is a pure function over `Option<&str>` so unit tests
//! never have to mutate the process environment (which races between
//! threaded tests).

use std::fmt::Display;
use std::str::FromStr;

/// Parses `raw` — the value of the environment variable `name`, or `None`
/// when unset — falling back to `default` with a warning on stderr when the
/// value does not parse.
pub fn parse_or<T>(name: &str, raw: Option<&str>, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    match raw {
        None => default,
        Some(v) => match v.trim().parse::<T>() {
            Ok(x) => x,
            Err(e) => {
                eprintln!("warning: ignoring {name}={v:?} ({e}); using the default");
                default
            }
        },
    }
}

/// Reads and parses the environment variable `name` via [`parse_or`].
pub fn var_or<T>(name: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    let raw = std::env::var(name).ok();
    parse_or(name, raw.as_deref(), default)
}

/// Interprets `raw` as a boolean flag: `1`/`true`/`yes`/`on` enable,
/// `0`/`false`/`no`/`off` (and unset) disable, anything else warns to
/// stderr and disables. Matching is case-insensitive.
pub fn parse_flag(name: &str, raw: Option<&str>) -> bool {
    let Some(v) = raw else { return false };
    match v.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "" | "0" | "false" | "no" | "off" => false,
        _ => {
            eprintln!("warning: ignoring {name}={v:?} (expected 0/1); treating as unset");
            false
        }
    }
}

/// Reads the environment variable `name` as a flag via [`parse_flag`].
pub fn var_flag(name: &str) -> bool {
    let raw = std::env::var(name).ok();
    parse_flag(name, raw.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_takes_default() {
        assert_eq!(parse_or("ZERODEV_THREADS", None, 7usize), 7);
        assert!(!parse_flag("ZERODEV_QUICK", None));
    }

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_or("ZERODEV_THREADS", Some("12"), 7usize), 12);
        assert_eq!(parse_or("ZERODEV_THREADS", Some("  3 "), 7usize), 3);
        assert_eq!(parse_or("X", Some("2.5"), 1.0f64), 2.5);
    }

    #[test]
    fn garbage_falls_back_to_default() {
        assert_eq!(parse_or("ZERODEV_THREADS", Some("many"), 7usize), 7);
        assert_eq!(parse_or("ZERODEV_THREADS", Some("-4"), 7usize), 7);
        assert_eq!(parse_or("ZERODEV_THREADS", Some(""), 7usize), 7);
    }

    #[test]
    fn flags_accept_common_spellings() {
        for v in ["1", "true", "YES", "On"] {
            assert!(parse_flag("ZERODEV_AUDIT", Some(v)), "{v}");
        }
        for v in ["0", "false", "no", "OFF", ""] {
            assert!(!parse_flag("ZERODEV_AUDIT", Some(v)), "{v}");
        }
    }

    #[test]
    fn garbage_flag_is_treated_as_unset() {
        assert!(!parse_flag("ZERODEV_QUICK", Some("enable-please")));
        assert!(!parse_flag("ZERODEV_QUICK", Some("2")));
    }
}
