//! `gcore-check` as a command-line linter: statically analyze G-CORE
//! scripts without evaluating them, print rustc-style diagnostics, and
//! exit nonzero when any error-severity diagnostic is found.
//!
//! ```sh
//! # Lint the paper's §3/§5 corpus (the default):
//! cargo run --example check
//!
//! # Lint your own `;`-separated script files:
//! cargo run --example check -- my_queries.gcore more.gcore
//!
//! # Print the query plan (EXPLAIN) instead of linting — the plan
//! # evaluation would interpret, so syntactic-order plans under
//! # GCORE_PLAN=off. Corpus mode evaluates as it goes so later plans see
//! # the views earlier statements define; file mode plans statically:
//! cargo run --example check -- --explain
//! cargo run --example check -- --explain my_queries.gcore
//! ```

use gcore_repro::corpus;
use gcore_repro::engine::{render_all, Engine};
use gcore_repro::ppg::IdGen;
use gcore_repro::snb::{figure2, social_dataset};
use std::process::ExitCode;

/// An engine with the guided-tour catalog (social graph, company graph,
/// orders table, Figure 2) — the data the corpus queries expect, so the
/// catalog-aware lints resolve names against something real.
fn tour_engine() -> Engine {
    let mut engine = Engine::new();
    let ids: IdGen = engine.catalog().ids().clone();
    let d = social_dataset(&ids);
    engine.register_graph("social_graph", d.social_graph);
    engine.register_graph("company_graph", d.company_graph);
    engine.register_graph("figure2", figure2(&ids));
    engine.register_table("orders", d.orders);
    engine.set_default_graph("social_graph");
    engine
}

/// `--explain`: print each statement's plan instead of diagnostics.
/// Corpus mode evaluates statement by statement so a later plan
/// resolves the graph views earlier statements define; file mode plans
/// statically against the tour catalog.
fn explain(args: &[String]) -> ExitCode {
    let mut engine = tour_engine();
    if args.is_empty() {
        for q in corpus::ALL {
            println!("── {} ──", q.id);
            match engine.explain(q.text) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            if let Err(e) = engine.run(q.text) {
                println!("(evaluation failed: {e})");
            }
            println!();
        }
        return ExitCode::SUCCESS;
    }
    for path in args {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stmts = match gcore_repro::parser::parse_script(&text) {
            Ok(stmts) => stmts,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (i, stmt) in stmts.iter().enumerate() {
            println!("── {path} [{}] ──", i + 1);
            match engine.explain(&gcore_repro::parser::print_statement(stmt)) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            println!();
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let engine = tour_engine();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        args.remove(pos);
        return explain(&args);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut lint = |name: &str, text: &str| {
        let diags = engine.check_script(text);
        errors += diags.iter().filter(|d| d.is_error()).count();
        warnings += diags.iter().filter(|d| !d.is_error()).count();
        if !diags.is_empty() {
            println!("── {name} ──");
            println!("{}", render_all(&diags, text));
        }
    };

    if args.is_empty() {
        // Default: the paper's whole corpus, in listing order. Views
        // defined by earlier queries are resolved by joining the corpus
        // into one script.
        let script: Vec<&str> = corpus::ALL.iter().map(|q| q.text).collect();
        lint("corpus (§3/§5)", &script.join("\n"));
    } else {
        for path in &args {
            match std::fs::read_to_string(path) {
                Ok(text) => lint(path, &text),
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    println!("gcore-check: {errors} errors, {warnings} warnings");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
