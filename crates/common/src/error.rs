//! Error type shared across the workspace.

use std::fmt;

/// Unified error type for synopsis construction and querying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassError {
    /// The query references a dimension the synopsis was not built over.
    DimensionMismatch {
        /// Predicate dimensions the synopsis covers.
        expected: usize,
        /// Predicate dimensions the query supplied.
        got: usize,
    },
    /// A parameter was outside its valid range (name, description).
    InvalidParameter(&'static str, String),
    /// The input table is empty or otherwise unusable.
    EmptyInput(&'static str),
    /// I/O-style failure while loading data (message only; keeps the error
    /// type `Clone + Eq` which simplifies test assertions).
    Load(String),
    /// A snapshot failed to decode (see [`crate::snapshot::SnapshotError`]
    /// for the taxonomy; carries no floats, so `Clone + Eq` survive).
    Snapshot(crate::snapshot::SnapshotError),
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "query has {got} dimensions but synopsis covers {expected}"
                )
            }
            PassError::InvalidParameter(name, why) => {
                write!(f, "invalid parameter `{name}`: {why}")
            }
            PassError::EmptyInput(what) => write!(f, "empty input: {what}"),
            PassError::Load(msg) => write!(f, "load error: {msg}"),
            PassError::Snapshot(err) => write!(f, "snapshot error: {err}"),
        }
    }
}

impl std::error::Error for PassError {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, PassError>;

/// The one arity rule (§3.1): a synopsis over `expected` predicate
/// dimensions refuses a query rectangle or update point of `got` other
/// dimensions, here and nowhere else.
#[inline]
pub fn check_dims(expected: usize, got: usize) -> Result<()> {
    if expected == got {
        Ok(())
    } else {
        Err(PassError::DimensionMismatch { expected, got })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = PassError::DimensionMismatch {
            expected: 2,
            got: 5,
        };
        assert_eq!(
            e.to_string(),
            "query has 5 dimensions but synopsis covers 2"
        );
        let e = PassError::InvalidParameter("k", "must be >= 1".into());
        assert_eq!(e.to_string(), "invalid parameter `k`: must be >= 1");
        let e = PassError::EmptyInput("table");
        assert_eq!(e.to_string(), "empty input: table");
        let e = PassError::Load("bad csv".into());
        assert_eq!(e.to_string(), "load error: bad csv");
        let e = PassError::Snapshot(crate::snapshot::SnapshotError::BadMagic);
        assert_eq!(
            e.to_string(),
            "snapshot error: not a PASS snapshot (bad magic)"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&PassError::EmptyInput("x"));
    }
}
