//! JSON rendering for `shapex validate --report json`.
//!
//! The document builders live in [`shapex::report`] so the resident
//! server can emit byte-identical documents; this module re-exports them
//! and adds the one block core cannot build — the backtracking reference
//! engine's stats (core does not depend on `shapex-backtrack`).

use serde_json::{json, Value};
use shapex_backtrack::BtStats;

pub use shapex::report::*;

pub fn bt_stats_json(s: &BtStats) -> Value {
    json!({
        "rule_applications": s.rule_applications,
        "decompositions": s.decompositions,
        "gfp_iterations": s.gfp_iterations,
        "node_checks": s.node_checks,
        "budget_steps": s.budget_steps,
        "exhausted_checks": s.exhausted_checks,
    })
}
