//! Model-checking errors.

use std::fmt;

/// Errors reported by the model checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum McError {
    /// The formula contains an indexed proposition with a free index
    /// variable; close the formula with `forall`/`exists` or substitute a
    /// concrete index first.
    FreeIndexVariable(String),
    /// The formula contains an index quantifier but the checker has no
    /// index set to expand it over; use the indexed checker.
    QuantifierWithoutIndexSet(String),
    /// Under fairness requirements the checker supports only CTL-shaped
    /// formulas (each path quantifier wrapping one temporal operator over
    /// state operands); the payload is the offending path formula.
    NotCtl(String),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::FreeIndexVariable(v) => {
                write!(f, "free index variable {v:?} in formula")
            }
            McError::QuantifierWithoutIndexSet(v) => write!(
                f,
                "index quantifier over {v:?} requires an indexed structure (use IndexedChecker)"
            ),
            McError::NotCtl(p) => write!(
                f,
                "path formula {p:?} is outside the CTL fragment checked under fairness"
            ),
        }
    }
}

impl std::error::Error for McError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(McError::FreeIndexVariable("i".into())
            .to_string()
            .contains("free index variable"));
        assert!(McError::QuantifierWithoutIndexSet("i".into())
            .to_string()
            .contains("IndexedChecker"));
        assert!(McError::NotCtl("F G p".into())
            .to_string()
            .contains("CTL fragment"));
    }
}
