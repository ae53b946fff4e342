//! Tabular data for the §5 extensions of G-CORE.
//!
//! Section 5 extends the language with `SELECT` (projecting bindings into a
//! table) and two ways of importing tables (`FROM <table>` and
//! `MATCH (o) ON <table>`). This module provides the table type shared by
//! those features; tables are built row by row with [`Table::push_row`].

use crate::value::Value;
use std::fmt;

/// A named-column table of literal values. `Null` marks absent cells.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// Errors raised by table construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TableError {
    /// A row's arity differs from the header's.
    RowArity {
        /// Number of header columns.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
        /// Zero-based row index.
        row: usize,
    },
    /// Two columns share a name.
    DuplicateColumn(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RowArity { expected, got, row } => {
                write!(f, "row {row} has {got} cells, expected {expected}")
            }
            TableError::DuplicateColumn(c) => write!(f, "duplicate column name {c:?}"),
        }
    }
}

impl std::error::Error for TableError {}

impl Table {
    /// An empty table with the given header.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Result<Self, TableError> {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].contains(c) {
                return Err(TableError::DuplicateColumn(c.clone()));
            }
        }
        Ok(Table {
            columns,
            rows: Vec::new(),
        })
    }

    /// Append a row; arity-checked.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.columns.len() {
            return Err(TableError::RowArity {
                expected: self.columns.len(),
                got: row.len(),
                row: self.rows.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Column names, in order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: &str) -> Option<&Value> {
        let c = self.column_index(col)?;
        self.rows.get(row).map(|r| &r[c])
    }

    /// Sort rows by the total order of values, column by column — gives
    /// deterministic output for tests and display.
    pub fn sorted(mut self) -> Self {
        self.rows.sort();
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{c:<width$}", width = widths[i])?;
        }
        writeln!(f)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "-+-")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let mut t = Table::new(vec!["custName", "prodCode"]).unwrap();
        t.push_row(vec![Value::str("Ann"), Value::Int(1)]).unwrap();
        t.push_row(vec![Value::str("Bob"), Value::Int(2)]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.cell(0, "custName"), Some(&Value::str("Ann")));
        assert_eq!(t.cell(1, "prodCode"), Some(&Value::Int(2)));
        assert!(t.cell(0, "nope").is_none());
    }

    #[test]
    fn arity_checked() {
        let mut t = Table::new(vec!["a", "b"]).unwrap();
        let err = t.push_row(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            TableError::RowArity {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_columns_rejected() {
        assert!(matches!(
            Table::new(vec!["a", "a"]),
            Err(TableError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn sorted_is_deterministic() {
        let mut t = Table::new(vec!["x"]).unwrap();
        t.push_row(vec![Value::Int(3)]).unwrap();
        t.push_row(vec![Value::Int(1)]).unwrap();
        t.push_row(vec![Value::Int(2)]).unwrap();
        let s = t.sorted();
        let xs: Vec<i64> = s.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(xs, vec![1, 2, 3]);
    }

    #[test]
    fn display_renders_aligned() {
        let mut t = Table::new(vec!["name", "n"]).unwrap();
        t.push_row(vec![Value::str("Ann"), Value::Int(1)]).unwrap();
        let s = t.to_string();
        assert!(s.contains("name | n"));
        assert!(s.contains("Ann"));
    }
}
