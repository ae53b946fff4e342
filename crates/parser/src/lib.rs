//! # gcore-parser — concrete syntax for G-CORE
//!
//! Hand-written lexer, recursive-descent parser and pretty-printer for the
//! G-CORE graph query language (SIGMOD 2018). The grammar implements
//! Section 4 and Appendix A of the paper, the ASCII-art pattern syntax of
//! the Section 3 guided tour, and the §5 tabular extensions (`SELECT`,
//! `FROM`).
//!
//! ```
//! use gcore_parser::parse_query;
//!
//! let q = parse_query(
//!     "CONSTRUCT (n) MATCH (n:Person) ON social_graph \
//!      WHERE n.employer = 'Acme'",
//! ).unwrap();
//! assert_eq!(q.heads.len(), 0);
//! ```

#![forbid(unsafe_code)]
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{Query, Statement};
pub use error::{ParseError, ParseErrorKind};
pub use parser::{parse_query, parse_script, parse_statement};
pub use pretty::{
    print_expr, print_located, print_pattern, print_pattern_on, print_query, print_statement,
};
