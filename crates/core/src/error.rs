//! Error type shared by all onepass crates.

use std::fmt;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the onepass engine and its substrates.
#[derive(Debug)]
pub enum Error {
    /// An underlying filesystem / I/O operation failed.
    Io(std::io::Error),
    /// A spill run or partition id was requested that does not exist.
    NotFound(String),
    /// An operator was driven through an invalid state transition
    /// (e.g. pushing records after `finish`).
    InvalidState(String),
    /// A configuration value is out of its legal range.
    Config(String),
    /// A memory budget was exceeded where the operator cannot spill
    /// (e.g. a single record larger than the whole budget).
    MemoryExceeded {
        /// Bytes the operation needed.
        requested: usize,
        /// Bytes the budget could still grant.
        available: usize,
    },
    /// Corrupt or truncated bytes this process did not write: a spill
    /// run read back, or a frame off the wire.
    Corrupt(String),
    /// The task attempt was cancelled by the driver (the job is failing
    /// on another task). Not a failure: the driver treats it as a
    /// benign early exit and never retries it.
    Cancelled,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            Error::Config(msg) => write!(f, "bad configuration: {msg}"),
            Error::MemoryExceeded {
                requested,
                available,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} B, {available} B available"
            ),
            Error::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            Error::Cancelled => write!(f, "task attempt cancelled"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::MemoryExceeded {
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("10"));

        assert!(Error::NotFound("run 3".into())
            .to_string()
            .contains("run 3"));
        assert!(Error::Config("bad".into()).to_string().contains("bad"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
        assert!(Error::Corrupt("x".into()).source().is_none());
    }
}
