//! Engine selection: the row-at-a-time executor vs. the columnar batch
//! executor.
//!
//! All engines compute identical results — answer relations in the same
//! insertion order, [`crate::ExecutionTrace`]s with the same per-step
//! sizes, the same `engine.*` counters — which the differential suite at
//! the workspace root enforces. Selection is therefore purely a
//! performance knob with exactly one source: the innermost [`install`]
//! in the thread's request context (`viewplan_obs::ctx`), else
//! [`Engine::default`] (columnar). Callers that select an engine say so
//! explicitly — the CLI installs its `--engine` value around the
//! command, the differential tests install each engine in turn — and a
//! worker pool that carries the context carries the choice.

use viewplan_obs::ctx::{self, CtxGuard};

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

/// The engine's bits of the request context's policy word (bits 0–1, as
/// allocated in `viewplan_obs::ctx`): 0 = no override, else the
/// overriding engine's discriminant plus one.
const POLICY_MASK: u32 = 0b11;

/// The engine the current thread's evaluations run on: the innermost
/// [`install`]ed override, else [`Engine::default`].
pub fn current_engine() -> Engine {
    match ctx::policy() & POLICY_MASK {
        1 => Engine::Row,
        2 => Engine::Columnar,
        3 => Engine::Yannakakis,
        _ => Engine::default(),
    }
}

/// Pins `engine` for the current thread until the returned guard drops.
/// Nests: dropping restores the previous override.
pub fn install(engine: Engine) -> CtxGuard {
    ctx::set_policy(POLICY_MASK, engine as u32 + 1)
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
        for e in [Engine::Row, Engine::Columnar, Engine::Yannakakis] {
            let _g = install(e);
            assert_eq!(
                current_engine(),
                e,
                "the policy bits decode to what was installed"
            );
        }
    }
}
