//! Text tables and JSON export for the figure/table regenerators.
//!
//! All JSON goes through [`crate::json::Writer`]. Result tables print
//! `f64` values with `{:?}` so whole numbers keep a trailing `.0`
//! (matching the `serde_json::to_string_pretty` output `results/*.json`
//! was first written with).

use crate::json::{Layout::Block, Writer};

/// One cell value in a result table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Row label (e.g. topology or metric name).
    pub row: String,
    /// Column label (e.g. "TOP", "PLACE", "PROFILE").
    pub col: String,
    /// Value.
    pub value: f64,
}

/// A named grid of results, rendered as text or JSON.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table/figure id, e.g. "fig4".
    pub id: String,
    /// Caption printed above the table.
    pub caption: String,
    /// Row label order.
    pub rows: Vec<String>,
    /// Column label order.
    pub cols: Vec<String>,
    /// Cells (sparse; missing cells print as "-").
    pub cells: Vec<Cell>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            rows: vec![],
            cols: vec![],
            cells: vec![],
        }
    }

    /// Inserts (or overwrites) a cell, registering its row/column labels.
    pub fn set(&mut self, row: impl Into<String>, col: impl Into<String>, value: f64) {
        let row = row.into();
        let col = col.into();
        if !self.rows.contains(&row) {
            self.rows.push(row.clone());
        }
        if !self.cols.contains(&col) {
            self.cols.push(col.clone());
        }
        if let Some(c) = self.cells.iter_mut().find(|c| c.row == row && c.col == col) {
            c.value = value;
        } else {
            self.cells.push(Cell { row, col, value });
        }
    }

    /// Looks up a cell.
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.row == row && c.col == col)
            .map(|c| c.value)
    }

    /// Renders an aligned text table with `precision` decimals.
    pub fn render(&self, precision: usize) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        let width = self
            .cols
            .iter()
            .map(|c| c.len())
            .chain(
                self.cells
                    .iter()
                    .map(|c| format!("{:.precision$}", c.value).len()),
            )
            .max()
            .unwrap_or(8)
            .max(8);
        let row_w = self
            .rows
            .iter()
            .map(String::len)
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!("{:row_w$}", ""));
        for c in &self.cols {
            out.push_str(&format!(" {c:>width$}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{r:row_w$}"));
            for c in &self.cols {
                match self.get(r, c) {
                    Some(v) => out.push_str(&format!(" {:>width$.precision$}", v)),
                    None => out.push_str(&format!(" {:>width$}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serializes to pretty JSON (for EXPERIMENTS.md bookkeeping).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Block, |w| {
            w.key("id").string(&self.id);
            w.key("caption").string(&self.caption);
            for (key, labels) in [("rows", &self.rows), ("cols", &self.cols)] {
                w.key(key)
                    .array(Block, |w| labels.iter().for_each(|s| w.string(s)));
            }
            w.key("cells").rows(Block, &self.cells, |w, c| {
                w.key("row").string(&c.row);
                w.key("col").string(&c.col);
                w.key("value").shortest(c.value);
            });
        });
        w.finish()
    }
}

/// Renders a simple horizontal bar chart line (for series figures in a
/// terminal), scaled to `max_width` characters.
pub fn bar(value: f64, max_value: f64, max_width: usize) -> String {
    if max_value <= 0.0 {
        return String::new();
    }
    let w = ((value / max_value) * max_width as f64).round() as usize;
    "#".repeat(w.min(max_width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_overwrite() {
        let mut t = ResultTable::new("fig4", "Load imbalance");
        t.set("Campus", "TOP", 0.5);
        t.set("Campus", "TOP", 0.6);
        assert_eq!(t.get("Campus", "TOP"), Some(0.6));
        assert_eq!(t.cells.len(), 1);
        assert_eq!(t.get("Campus", "PLACE"), None);
    }

    #[test]
    fn render_contains_all_labels() {
        let mut t = ResultTable::new("t", "c");
        t.set("Campus", "TOP", 1.0);
        t.set("Brite", "PROFILE", 0.25);
        let s = t.render(3);
        for needle in ["Campus", "Brite", "TOP", "PROFILE", "1.000", "0.250", "-"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    /// Expected bytes were produced by the hand-rolled emitter this
    /// crate had before `json::Writer` (parent of the port), so the port
    /// is pinned to the layout `results/*.json` were written in.
    #[test]
    fn json_matches_pinned_bytes() {
        let mut t = ResultTable::new("fig\"5\"", "caption with \\ and \n newline \u{1} é");
        t.set("Campus", "TOP", 2.0);
        t.set("Campus", "PLACE", 0.1);
        t.set("Brite", "TOP", 1e-7);
        t.set("Brite", "PROFILE", f64::NAN);
        t.set("Brite", "PLACE", 1234567.875);
        let expected = r#"{
  "id": "fig\"5\"",
  "caption": "caption with \\ and \n newline \u0001 é",
  "rows": [
    "Campus",
    "Brite"
  ],
  "cols": [
    "TOP",
    "PLACE",
    "PROFILE"
  ],
  "cells": [
    {
      "row": "Campus",
      "col": "TOP",
      "value": 2.0
    },
    {
      "row": "Campus",
      "col": "PLACE",
      "value": 0.1
    },
    {
      "row": "Brite",
      "col": "TOP",
      "value": 1e-7
    },
    {
      "row": "Brite",
      "col": "PROFILE",
      "value": null
    },
    {
      "row": "Brite",
      "col": "PLACE",
      "value": 1234567.875
    }
  ]
}"#;
        assert_eq!(t.to_json(), expected);
        assert_eq!(
            ResultTable::new("empty", "").to_json(),
            "{\n  \"id\": \"empty\",\n  \"caption\": \"\",\n  \"rows\": [],\n  \"cols\": [],\n  \"cells\": []\n}"
        );
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
