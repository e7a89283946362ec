//! Error type for the Newton AiM model.

use std::error::Error;
use std::fmt;

use newton_dram::DramError;

/// An error raised by the Newton device model or its controller.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AimError {
    /// The underlying DRAM substrate rejected a command (a controller bug,
    /// surfaced rather than absorbed).
    Dram(DramError),
    /// A matrix/vector shape was invalid or inconsistent.
    Shape {
        /// What was being validated.
        what: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
    /// The matrix does not fit in the configured device.
    CapacityExceeded {
        /// Rows required per bank.
        required_rows: usize,
        /// Rows available per bank.
        available_rows: usize,
    },
    /// The ECC scrub detected an uncorrectable multi-bit error in resident
    /// matrix data. The device reported it instead of computing on
    /// garbage; recovery (scrub-rewrite, then bank retirement) is the
    /// system's job — see `NewtonSystem::run_resident_resilient`.
    Uncorrectable {
        /// Channel holding the damaged row.
        channel: usize,
        /// Bank within the channel.
        bank: usize,
        /// The damaged row.
        row: usize,
    },
    /// The post-run timing audit (enabled via `--audit`) found violations
    /// in the command stream the controller issued.
    AuditFailed {
        /// Channel whose command stream failed.
        channel: usize,
        /// Number of violations found.
        violations: usize,
        /// The first violation, for the error message.
        first: String,
    },
}

impl fmt::Display for AimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AimError::Dram(e) => write!(f, "dram substrate error: {e}"),
            AimError::Shape { what, detail } => write!(f, "invalid {what}: {detail}"),
            AimError::InvalidConfig(msg) => write!(f, "invalid Newton configuration: {msg}"),
            AimError::CapacityExceeded {
                required_rows,
                available_rows,
            } => write!(
                f,
                "matrix needs {required_rows} rows per bank but only {available_rows} exist"
            ),
            AimError::Uncorrectable { channel, bank, row } => write!(
                f,
                "uncorrectable ECC error in channel {channel}, bank {bank}, row {row}"
            ),
            AimError::AuditFailed {
                channel,
                violations,
                first,
            } => write!(
                f,
                "timing audit failed on channel {channel}: {violations} violation(s), first: {first}"
            ),
        }
    }
}

impl Error for AimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AimError::Dram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DramError> for AimError {
    fn from(e: DramError) -> AimError {
        AimError::Dram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AimError::from(DramError::InvalidConfig("x".into()));
        assert!(e.to_string().contains("dram substrate error"));
        assert!(Error::source(&e).is_some());
        let e = AimError::Shape {
            what: "matrix",
            detail: "m=0".into(),
        };
        assert!(e.to_string().contains("invalid matrix"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<AimError>();
    }
}
