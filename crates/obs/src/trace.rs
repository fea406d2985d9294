//! Event severity levels and the `IC_OBS_LEVEL` filter shared by every
//! recorder in this crate.

/// Event severity. `Debug` is for per-step records (high volume);
/// `Info` for state transitions; `Warn` for anomalies (rejections,
/// failovers, budget violations); `Error` for invariant breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// High-volume per-step records.
    Debug,
    /// State transitions and decisions.
    Info,
    /// Anomalies: rejections, failures, budget violations.
    Warn,
    /// Invariant violations — a run that emits one is suspect.
    Error,
}

/// The environment variable read by [`TraceLevel::from_env`] and the
/// flight recorder's `from_env` constructors: set to `error`, `warn`,
/// `info`, or `debug` to choose the minimum recorded level.
pub const LEVEL_ENV: &str = "IC_OBS_LEVEL";

impl TraceLevel {
    /// The lowercase name used in serialized output.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Debug => "debug",
            TraceLevel::Info => "info",
            TraceLevel::Warn => "warn",
            TraceLevel::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive): `error`, `warn`, `info`,
    /// or `debug`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(TraceLevel::Debug),
            "info" => Some(TraceLevel::Info),
            "warn" | "warning" => Some(TraceLevel::Warn),
            "error" => Some(TraceLevel::Error),
            _ => None,
        }
    }

    /// The level named by the `IC_OBS_LEVEL` environment variable, or
    /// `None` when the variable is unset or unparseable (callers keep
    /// their default).
    pub fn from_env() -> Option<Self> {
        std::env::var(LEVEL_ENV).ok().and_then(|s| Self::parse(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_order() {
        assert_eq!(TraceLevel::parse("DEBUG"), Some(TraceLevel::Debug));
        assert_eq!(TraceLevel::parse(" info "), Some(TraceLevel::Info));
        assert_eq!(TraceLevel::parse("warning"), Some(TraceLevel::Warn));
        assert_eq!(TraceLevel::parse("error"), Some(TraceLevel::Error));
        assert_eq!(TraceLevel::parse("loud"), None);
        assert!(TraceLevel::Error > TraceLevel::Warn);
        assert!(TraceLevel::Warn > TraceLevel::Info);
        assert!(TraceLevel::Info > TraceLevel::Debug);
        assert_eq!(TraceLevel::Error.name(), "error");
    }
}
