//! Engine errors: semantic (query rejected before evaluation) and
//! runtime (raised during evaluation, e.g. the paper's mandated error on
//! non-positive path costs).

use crate::diag::{DiagCode, Diagnostic};
use gcore_parser::ParseError;
use gcore_ppg::{CatalogError, GraphError};
use std::fmt;

/// Any error the engine can produce.
#[derive(Clone, PartialEq, Debug)]
pub enum EngineError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// The query is well-formed syntax but violates a static rule.
    Semantic(SemanticError),
    /// Evaluation failed.
    Runtime(RuntimeError),
    /// Catalog lookup failed.
    Catalog(CatalogError),
    /// Graph construction failed (should not escape the engine; kept for
    /// completeness).
    Graph(GraphError),
}

impl EngineError {
    /// True when this error means "evaluation was cooperatively
    /// cancelled" ([`RuntimeError::Cancelled`], stable code `E016`):
    /// the statement hit its deadline or an explicit cancel, not a
    /// defect in the query. Callers use this to map cancellation to a
    /// retryable condition instead of a user error.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self, EngineError::Runtime(RuntimeError::Cancelled))
    }
}

/// Static violations detected before evaluation.
#[derive(Clone, PartialEq, Debug)]
pub enum SemanticError {
    /// One variable used with two different sorts.
    SortMismatch {
        /// The offending variable.
        var: String,
        /// The sort required by the usage site.
        expected: String,
        /// The sort the variable is actually bound to.
        found: String,
    },
    /// A variable referenced but never bound in scope.
    UnboundVariable(String),
    /// `ALL` path variables may only be used for graph projection in
    /// CONSTRUCT (§3: anything else would be intractable or infinite).
    AllPathsEscape(String),
    /// A bound edge variable constructed with endpoints other than its own
    /// (§3: "changing the source and destination of an edge violates its
    /// identity").
    EdgeEndpointsChanged(String),
    /// A bound edge construct requires its endpoint variables bound too.
    EdgeEndpointsUnbound(String),
    /// A construct path variable must be bound by a path pattern in MATCH.
    ConstructPathUnbound(String),
    /// GROUP appeared on a bound variable (grouping of bound elements is
    /// fixed to identity by §A.3).
    GroupOnBoundVariable(String),
    /// Aggregates are only allowed in CONSTRUCT assignments / SET items /
    /// WHEN conditions / SELECT items, outside any aggregate's argument.
    MisplacedAggregate(String),
    /// A path pattern the evaluator cannot run: a computed pattern
    /// without a regex, or a PATH view whose walks cannot be rebuilt.
    /// The analyzer reports these and every other E006 case first.
    InvalidPathPattern(String),
    /// A graph-valued query was required, but the body is a SELECT.
    GraphExpected(String),
    /// The statement produced the wrong output sort for the API used.
    WrongOutputSort {
        /// What the caller asked for (`"graph"` / `"table"`).
        expected: &'static str,
        /// What the statement produces.
        found: &'static str,
    },
    /// The static analyzer rejected the statement; every error-severity
    /// diagnostic it collected is here.
    Analysis(Vec<Diagnostic>),
}

impl SemanticError {
    /// The stable diagnostic code for this error (see
    /// [`crate::diag::DiagCode`]). For [`SemanticError::Analysis`] this
    /// is the code of the first error-severity diagnostic.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            SemanticError::SortMismatch { .. } => DiagCode::SortMismatch.as_str(),
            SemanticError::UnboundVariable(_) => DiagCode::UnboundVariable.as_str(),
            SemanticError::MisplacedAggregate(_) => DiagCode::MisplacedAggregate.as_str(),
            SemanticError::InvalidPathPattern(_) => DiagCode::InvalidPathPattern.as_str(),
            SemanticError::GraphExpected(_) => DiagCode::GraphExpected.as_str(),
            SemanticError::AllPathsEscape(_) => DiagCode::AllPathsEscape.as_str(),
            SemanticError::EdgeEndpointsChanged(_) => DiagCode::EdgeEndpointsChanged.as_str(),
            SemanticError::EdgeEndpointsUnbound(_) => DiagCode::EdgeEndpointsUnbound.as_str(),
            SemanticError::ConstructPathUnbound(_) => DiagCode::ConstructPathUnbound.as_str(),
            SemanticError::GroupOnBoundVariable(_) => DiagCode::GroupOnBoundVariable.as_str(),
            SemanticError::WrongOutputSort { .. } => DiagCode::WrongOutputSort.as_str(),
            SemanticError::Analysis(diags) => diags
                .iter()
                .find(|d| d.is_error())
                .map_or("E999", |d| d.code.as_str()),
        }
    }
}

/// Failures raised during evaluation.
#[derive(Clone, PartialEq, Debug)]
pub enum RuntimeError {
    /// §3: "The specified cost must be numerical, and larger than zero
    /// (otherwise a run-time error will be raised)".
    NonPositiveCost {
        /// The PATH view whose COST failed.
        view: String,
        /// Human-readable description of the offending segment.
        detail: String,
    },
    /// A PATH view referenced from a regex does not exist.
    UnknownPathView(String),
    /// Type error during expression evaluation that cannot be coalesced.
    Type(String),
    /// Division by zero.
    DivisionByZero,
    /// Evaluation was cooperatively cancelled: the statement's
    /// [`CancelToken`](crate::cancel::CancelToken) fired (deadline
    /// passed or an explicit cancel), and the evaluator unwound at the
    /// next loop boundary. The result is *absent*, not wrong.
    Cancelled,
    /// Anything else.
    Other(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Semantic(e) => write!(f, "semantic error: {e}"),
            EngineError::Runtime(e) => write!(f, "runtime error: {e}"),
            EngineError::Catalog(e) => write!(f, "catalog error: {e}"),
            EngineError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl fmt::Display for SemanticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticError::SortMismatch {
                var,
                expected,
                found,
            } => write!(
                f,
                "variable '{var}' is used both as {expected} and as {found}"
            ),
            SemanticError::UnboundVariable(v) => {
                write!(f, "variable '{v}' is not bound by any pattern in scope")
            }
            SemanticError::AllPathsEscape(v) => write!(
                f,
                "ALL-path variable '{v}' may only be used for graph projection in CONSTRUCT"
            ),
            SemanticError::EdgeEndpointsChanged(v) => write!(
                f,
                "edge variable '{v}' is bound; constructing it between other nodes would change \
                 its identity"
            ),
            SemanticError::EdgeEndpointsUnbound(v) => write!(
                f,
                "constructing bound edge '{v}' requires its source and destination variables to \
                 be bound to exactly its endpoints"
            ),
            SemanticError::ConstructPathUnbound(v) => write!(
                f,
                "construct path variable '{v}' must be bound by a path pattern in MATCH"
            ),
            SemanticError::GroupOnBoundVariable(v) => write!(
                f,
                "GROUP on '{v}' is not allowed: the variable is bound, so its grouping is fixed \
                 to its identity"
            ),
            SemanticError::MisplacedAggregate(w) => {
                write!(f, "aggregate function not allowed in {w}")
            }
            SemanticError::InvalidPathPattern(m) => write!(f, "invalid path pattern: {m}"),
            SemanticError::GraphExpected(w) => {
                write!(f, "{w} must be a graph query, not SELECT")
            }
            SemanticError::WrongOutputSort { expected, found } => {
                write!(f, "query produced a {found}; expected a {expected}")
            }
            SemanticError::Analysis(diags) => {
                let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
                write!(
                    f,
                    "{} static error{} (run `check` for full diagnostics)",
                    errors.len(),
                    if errors.len() == 1 { "" } else { "s" }
                )?;
                for d in errors {
                    write!(f, "\n  [{}] {}", d.code, d.message)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NonPositiveCost { view, detail } => write!(
                f,
                "path view '{view}' produced a non-positive or non-numeric cost: {detail}"
            ),
            RuntimeError::UnknownPathView(v) => write!(f, "unknown path view '~{v}'"),
            RuntimeError::Type(m) => write!(f, "type error: {m}"),
            RuntimeError::DivisionByZero => f.write_str("division by zero"),
            RuntimeError::Cancelled => {
                f.write_str("statement cancelled (deadline exceeded or cancellation requested)")
            }
            RuntimeError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}
impl From<SemanticError> for EngineError {
    fn from(e: SemanticError) -> Self {
        EngineError::Semantic(e)
    }
}
impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}
impl From<CatalogError> for EngineError {
    fn from(e: CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}
impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
