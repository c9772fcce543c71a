//! Engine selection: the row-at-a-time executor vs. the columnar batch
//! executor.
//!
//! All engines compute identical results — answer relations in the same
//! insertion order, [`crate::ExecutionTrace`]s with the same per-step
//! sizes, the same `engine.*` counters — which the differential suite at
//! the workspace root enforces. Selection is therefore purely a
//! performance knob with exactly one source: the innermost
//! thread-scoped [`install`], else [`Engine::default`] (columnar).
//! Callers that select an engine say so explicitly — the CLI installs
//! its `--engine` value around the command, the serving layer installs
//! [`ServeConfig::engine`](../../viewplan_serve/struct.ServeConfig.html)
//! per request, the differential tests install each engine in turn —
//! and the worker pool re-installs the spawning thread's choice on
//! every worker.

use std::cell::Cell;

/// Which executor [`crate::evaluate`] and the `execute_*` entry points
/// run on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The original tuple-at-a-time multiway hash join.
    Row,
    /// Struct-of-arrays batch execution: selection vectors, columnar
    /// hash join build/probe, column-wise gathers.
    #[default]
    Columnar,
    /// Yannakakis evaluation for acyclic queries: semijoin-reduce the
    /// stored relations along the GYO join forest, then join with no
    /// intermediate blowup. Cyclic queries fall back to the columnar
    /// executor.
    Yannakakis,
}

impl Engine {
    /// Parses an engine name as used by the CLI's `--engine` flag.
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "row" => Some(Engine::Row),
            "columnar" => Some(Engine::Columnar),
            "yannakakis" => Some(Engine::Yannakakis),
            _ => None,
        }
    }

    /// The CLI-facing name (`"row"` / `"columnar"` / `"yannakakis"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Row => "row",
            Engine::Columnar => "columnar",
            Engine::Yannakakis => "yannakakis",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    static OVERRIDE: Cell<Option<Engine>> = const { Cell::new(None) };
}

/// The engine the current thread's evaluations run on: the innermost
/// [`install`]ed override, else [`Engine::default`].
pub fn current_engine() -> Engine {
    OVERRIDE.with(|o| o.get()).unwrap_or_default()
}

/// Pins `engine` for the current thread until the returned guard drops.
/// Nests: dropping restores the previous override.
pub fn install(engine: Engine) -> EngineGuard {
    let previous = OVERRIDE.with(|o| o.replace(Some(engine)));
    EngineGuard { previous }
}

/// Restores the previous thread-scoped engine override on drop.
#[must_use = "dropping the guard immediately uninstalls the engine override"]
pub struct EngineGuard {
    previous: Option<Engine>,
}

impl Drop for EngineGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|o| o.set(self.previous));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for e in [Engine::Row, Engine::Columnar, Engine::Yannakakis] {
            assert_eq!(Engine::from_name(e.name()), Some(e));
        }
        assert_eq!(Engine::from_name("vectorised"), None);
    }

    #[test]
    fn install_overrides_and_restores() {
        let ambient = current_engine();
        {
            let _g = install(Engine::Row);
            assert_eq!(current_engine(), Engine::Row);
            {
                let _g2 = install(Engine::Columnar);
                assert_eq!(current_engine(), Engine::Columnar);
            }
            assert_eq!(current_engine(), Engine::Row);
        }
        assert_eq!(current_engine(), ambient);
    }
}
