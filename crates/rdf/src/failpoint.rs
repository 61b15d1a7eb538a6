//! Named fault-injection points for robustness testing.
//!
//! A *failpoint* is a named site in the code where a test (or an operator
//! running a chaos drill) can inject a fault: a panic, an artificial
//! delay, or a synthetic I/O-style error. Production builds compile every
//! site down to nothing — the whole module is inert unless the
//! `fail-inject` cargo feature is enabled, and even then a site is a
//! single mutex-guarded map probe that misses for unregistered names.
//!
//! Sites come in two flavours:
//!
//! * [`hit`] — panic/delay only. Used where the surrounding code has no
//!   error channel (engine internals). An `Error` action registered at a
//!   `hit` site escalates to a panic.
//! * [`check`] — returns `Some(message)` for an `Error` action so the
//!   caller can surface it through its own error type (parsers, delta
//!   application). Panics and delays are handled internally.
//!
//! The registered sites (all names are stable test API):
//!
//! | name            | site                                   | flavour |
//! |-----------------|----------------------------------------|---------|
//! | `turtle-parse`  | [`crate::turtle::parse_into`]          | check   |
//! | `delta-apply`   | [`crate::graph::Graph::try_apply_delta`] per-operation | check |
//! | `engine-compile`| `shapex::Engine::compile`              | hit     |
//! | `typing-wave`   | the engine's per-query gfp driver      | hit     |
//! | `dfa-fill`      | lazy-DFA transition-table fills        | hit     |
//!
//! Configuration is programmatic ([`set`]/[`clear`]/[`reset`]) or via the
//! `SHAPEX_FAILPOINTS` environment variable (see [`configure_from_env`]),
//! e.g. `SHAPEX_FAILPOINTS="typing-wave=panic:1;delta-apply=error(disk)"`.

use std::time::Duration;

/// What an armed failpoint does when its site is reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Panic with `failpoint <name>` — models an engine invariant blowing
    /// up mid-request.
    Panic,
    /// Sleep for the duration before continuing — models a stall that
    /// should trip deadlines and shed load.
    Delay(Duration),
    /// Surface a synthetic error with this message through the site's
    /// error channel — models I/O failure. At a panic-only ([`hit`])
    /// site this escalates to a panic.
    Error(String),
}

#[cfg(feature = "fail-inject")]
mod armed {
    use super::Action;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    struct Entry {
        action: Action,
        /// Hits to let pass before the point starts firing — this is what
        /// places an injected failure *mid*-delta or mid-run.
        skip: u32,
        /// `None` = fire on every hit; `Some(n)` = fire on the next `n`
        /// hits, then disarm.
        remaining: Option<u32>,
        /// When set, only hits on this thread count; others pass.
        thread: Option<std::thread::ThreadId>,
    }

    fn registry() -> &'static Mutex<HashMap<String, Entry>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    pub fn set(
        name: &str,
        action: Action,
        skip: u32,
        times: Option<u32>,
        thread: Option<std::thread::ThreadId>,
    ) {
        registry().lock().unwrap().insert(
            name.to_string(),
            Entry {
                action,
                skip,
                remaining: times,
                thread,
            },
        );
    }

    pub fn clear(name: &str) {
        registry().lock().unwrap().remove(name);
    }

    pub fn reset() {
        registry().lock().unwrap().clear();
    }

    /// Consumes one firing of `name`, if armed. The sleep for a `Delay`
    /// happens here, after the registry lock is released.
    pub fn fire(name: &str) -> Option<Action> {
        let action = {
            let mut map = registry().lock().unwrap();
            let entry = map.get_mut(name)?;
            if entry
                .thread
                .is_some_and(|t| t != std::thread::current().id())
            {
                return None;
            }
            if entry.skip > 0 {
                entry.skip -= 1;
                return None;
            }
            match &mut entry.remaining {
                Some(0) => return None,
                Some(n) => *n -= 1,
                None => {}
            }
            entry.action.clone()
        };
        if let Action::Delay(d) = action {
            std::thread::sleep(d);
            return None;
        }
        Some(action)
    }

    /// Parses one `name=action[:times]` clause.
    pub fn parse_clause(clause: &str) -> Option<(String, Action, Option<u32>)> {
        let (name, spec) = clause.split_once('=')?;
        let (spec, times) = match spec.rsplit_once(':') {
            Some((head, n)) if n.chars().all(|c| c.is_ascii_digit()) && !n.is_empty() => {
                (head, Some(n.parse().ok()?))
            }
            _ => (spec, None),
        };
        let action = if spec == "panic" {
            Action::Panic
        } else if let Some(ms) = spec
            .strip_prefix("delay(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Action::Delay(Duration::from_millis(ms.parse().ok()?))
        } else if let Some(msg) = spec
            .strip_prefix("error(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Action::Error(msg.to_string())
        } else {
            return None;
        };
        Some((name.trim().to_string(), action, times))
    }
}

/// Arms failpoint `name` with `action`. `times: Some(n)` fires on the next
/// `n` hits then disarms; `None` fires on every hit until [`clear`]ed.
/// No-op without the `fail-inject` feature.
pub fn set(name: &str, action: Action, times: Option<u32>) {
    set_after(name, action, 0, times);
}

/// [`set`], but lets the first `skip` hits pass before firing — the knob
/// that places an injected failure *mid*-delta or mid-run instead of at
/// the first site reached. No-op without the `fail-inject` feature.
pub fn set_after(name: &str, action: Action, skip: u32, times: Option<u32>) {
    #[cfg(feature = "fail-inject")]
    armed::set(name, action, skip, times, None);
    #[cfg(not(feature = "fail-inject"))]
    let _ = (name, action, skip, times);
}

/// [`set_after`], but only hits on the calling thread count: other
/// threads pass the site untouched. For tests that arm a site while
/// concurrent tests in the same process reach it too. No-op without the
/// `fail-inject` feature.
pub fn set_after_on_this_thread(name: &str, action: Action, skip: u32, times: Option<u32>) {
    #[cfg(feature = "fail-inject")]
    armed::set(name, action, skip, times, Some(std::thread::current().id()));
    #[cfg(not(feature = "fail-inject"))]
    let _ = (name, action, skip, times);
}

/// Disarms failpoint `name`. No-op without the `fail-inject` feature.
pub fn clear(name: &str) {
    #[cfg(feature = "fail-inject")]
    armed::clear(name);
    #[cfg(not(feature = "fail-inject"))]
    let _ = name;
}

/// Disarms every failpoint. No-op without the `fail-inject` feature.
pub fn reset() {
    #[cfg(feature = "fail-inject")]
    armed::reset();
}

/// Arms failpoints from the `SHAPEX_FAILPOINTS` environment variable:
/// `;`-separated `name=action[:times]` clauses where `action` is `panic`,
/// `delay(MS)`, or `error(MSG)` and `times` caps how often the point
/// fires. Malformed clauses are reported back instead of silently
/// ignored. No-op (returning an empty list) without the feature.
pub fn configure_from_env() -> Vec<String> {
    #[cfg(feature = "fail-inject")]
    {
        let mut bad = Vec::new();
        if let Ok(spec) = std::env::var("SHAPEX_FAILPOINTS") {
            for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
                match armed::parse_clause(clause.trim()) {
                    Some((name, action, times)) => armed::set(&name, action, 0, times, None),
                    None => bad.push(clause.trim().to_string()),
                }
            }
        }
        bad
    }
    #[cfg(not(feature = "fail-inject"))]
    Vec::new()
}

/// A panic-only failpoint site: panics on `Panic` (and, escalated, on
/// `Error`), sleeps on `Delay`, and does nothing when unarmed. Compiles
/// to nothing without the `fail-inject` feature.
#[inline]
pub fn hit(name: &str) {
    #[cfg(feature = "fail-inject")]
    if let Some(action) = armed::fire(name) {
        match action {
            Action::Panic => panic!("failpoint {name}"),
            Action::Error(msg) => panic!("failpoint {name}: {msg} (error at panic-only site)"),
            Action::Delay(_) => unreachable!("delays are handled in fire"),
        }
    }
    #[cfg(not(feature = "fail-inject"))]
    let _ = name;
}

/// An error-capable failpoint site: like [`hit`], but an `Error` action is
/// returned as `Some(message)` for the caller to surface through its own
/// error type. Always `None` without the `fail-inject` feature.
#[inline]
pub fn check(name: &str) -> Option<String> {
    #[cfg(feature = "fail-inject")]
    if let Some(action) = armed::fire(name) {
        match action {
            Action::Panic => panic!("failpoint {name}"),
            Action::Error(msg) => return Some(msg),
            Action::Delay(_) => unreachable!("delays are handled in fire"),
        }
    }
    #[cfg(not(feature = "fail-inject"))]
    let _ = name;
    None
}

#[cfg(all(test, feature = "fail-inject"))]
mod tests {
    use super::*;

    // Failpoint state is process-global; these tests use distinct names so
    // they can run concurrently with each other and with other suites.

    #[test]
    fn unarmed_sites_are_inert() {
        hit("fp-test-unarmed");
        assert_eq!(check("fp-test-unarmed"), None);
    }

    #[test]
    fn error_action_surfaces_at_check_sites() {
        set("fp-test-err", Action::Error("disk on fire".into()), None);
        assert_eq!(check("fp-test-err"), Some("disk on fire".to_string()));
        clear("fp-test-err");
        assert_eq!(check("fp-test-err"), None);
    }

    #[test]
    fn times_budget_disarms() {
        set("fp-test-times", Action::Error("boom".into()), Some(2));
        assert!(check("fp-test-times").is_some());
        assert!(check("fp-test-times").is_some());
        assert!(check("fp-test-times").is_none());
    }

    #[test]
    fn panic_action_panics() {
        set("fp-test-panic", Action::Panic, Some(1));
        let err = std::panic::catch_unwind(|| hit("fp-test-panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("failpoint fp-test-panic"), "{msg}");
        // The budget of 1 is spent: the site is inert again.
        hit("fp-test-panic");
    }

    #[test]
    fn delay_action_sleeps_and_continues() {
        set(
            "fp-test-delay",
            Action::Delay(Duration::from_millis(30)),
            Some(1),
        );
        let start = std::time::Instant::now();
        hit("fp-test-delay");
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn env_clause_parsing() {
        use super::armed::parse_clause;
        assert_eq!(
            parse_clause("a=panic"),
            Some(("a".to_string(), Action::Panic, None))
        );
        assert_eq!(
            parse_clause("b=delay(40):2"),
            Some((
                "b".to_string(),
                Action::Delay(Duration::from_millis(40)),
                Some(2)
            ))
        );
        assert_eq!(
            parse_clause("c=error(no space left)"),
            Some((
                "c".to_string(),
                Action::Error("no space left".to_string()),
                None
            ))
        );
        assert_eq!(parse_clause("junk"), None);
        assert_eq!(parse_clause("d=explode"), None);
    }
}
