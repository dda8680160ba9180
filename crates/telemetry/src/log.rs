//! Leveled logging to stderr, filtered by the `BCACHE_LOG` environment
//! variable (`off`, `error`, `warn`, `info`, `debug`; default `info`).
//!
//! Use the [`tele_error!`](crate::tele_error),
//! [`tele_warn!`](crate::tele_warn), [`tele_info!`](crate::tele_info),
//! and [`tele_debug!`](crate::tele_debug) macros rather than calling
//! [`log`] directly — they check [`enabled`] first so disabled levels
//! skip formatting entirely.

use std::io::{self, Write as _};
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable problems; also used by `BCACHE_LOG=error`.
    Error = 1,
    /// Suspicious but recoverable conditions.
    Warn = 2,
    /// Progress and results; the default maximum level.
    Info = 3,
    /// Verbose diagnostics, off by default.
    Debug = 4,
}

impl Level {
    /// Stable lowercase name, as printed in the log prefix.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// `BCACHE_LOG` value disabling all output.
const OFF: u8 = 0;
/// Sentinel meaning "environment not parsed yet".
const UNSET: u8 = u8::MAX;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// Parses a `BCACHE_LOG` value; unknown strings fall back to `info`.
fn parse(value: &str) -> u8 {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => OFF,
        "error" => Level::Error as u8,
        "warn" | "warning" => Level::Warn as u8,
        "info" | "" => Level::Info as u8,
        "debug" | "trace" => Level::Debug as u8,
        _ => Level::Info as u8,
    }
}

fn max_level() -> u8 {
    let cur = MAX_LEVEL.load(Ordering::Relaxed);
    if cur != UNSET {
        return cur;
    }
    let parsed = match std::env::var("BCACHE_LOG") {
        Ok(v) => parse(&v),
        Err(_) => Level::Info as u8,
    };
    // Racing initializers parse the same environment, so any winner
    // stores the same value; `set_max_level` still takes precedence.
    let _ = MAX_LEVEL.compare_exchange(UNSET, parsed, Ordering::Relaxed, Ordering::Relaxed);
    MAX_LEVEL.load(Ordering::Relaxed)
}

/// Overrides the maximum level, ignoring `BCACHE_LOG`. Pass `None` to
/// silence all output (the `off` setting).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Whether messages at `level` are currently emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

/// Emits one log line to stderr if `level` is enabled. Prefer the
/// `tele_*!` macros, which avoid formatting when disabled.
///
/// A failed write (a closed stderr pipe, say) drops the line rather
/// than panicking: a log line is never worth the run's results.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    if enabled(level) {
        let _ = writeln!(io::stderr().lock(), "[{}] {}", level.name(), args);
    }
}

/// Logs at [`Level::Error`], filtered by `BCACHE_LOG`.
#[macro_export]
macro_rules! tele_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::log($crate::log::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`], filtered by `BCACHE_LOG`.
#[macro_export]
macro_rules! tele_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`] (the default level), filtered by `BCACHE_LOG`.
#[macro_export]
macro_rules! tele_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`], silent unless `BCACHE_LOG=debug`.
#[macro_export]
macro_rules! tele_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_documented_values() {
        assert_eq!(parse("off"), OFF);
        assert_eq!(parse("none"), OFF);
        assert_eq!(parse("0"), OFF);
        assert_eq!(parse("error"), Level::Error as u8);
        assert_eq!(parse("WARN"), Level::Warn as u8);
        assert_eq!(parse("warning"), Level::Warn as u8);
        assert_eq!(parse(" info "), Level::Info as u8);
        assert_eq!(parse(""), Level::Info as u8);
        assert_eq!(parse("debug"), Level::Debug as u8);
        assert_eq!(parse("trace"), Level::Debug as u8);
        // Unknown values fall back to the default rather than panicking.
        assert_eq!(parse("verbose"), Level::Info as u8);
    }

    #[test]
    fn level_ordering_and_filtering() {
        assert!(Level::Error < Level::Debug);
        // Tests in this binary share the atomic, so drive it explicitly.
        set_max_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        set_max_level(Some(Level::Debug));
        assert!(enabled(Level::Debug));
        // Macros must compile against the public surface; emit one of
        // each while everything is enabled.
        tele_error!("e {}", 1);
        tele_warn!("w");
        tele_info!("i {}", "x");
        tele_debug!("d");
        set_max_level(Some(Level::Info));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Level::Error.name(), "error");
        assert_eq!(Level::Warn.name(), "warn");
        assert_eq!(Level::Info.name(), "info");
        assert_eq!(Level::Debug.name(), "debug");
    }
}
