//! Engine selection: the row-at-a-time executor vs. the columnar batch
//! executor.
//!
//! Both engines compute identical results — answer relations in the same
//! insertion order, [`crate::ExecutionTrace`]s with the same per-step
//! sizes, the same `engine.*` counters — which the differential suite at
//! the workspace root enforces. Every command runs the columnar executor
//! ([`Engine::default`]); the row executor is the differential oracle
//! that tests and the benchmark's reference answers select with a scoped
//! [`install`]. The choice has exactly one source, the innermost
//! [`install`] in the thread's request context (`crates/obs/src/ctx.rs`),
//! and holds on the installing thread only, like the rest of the
//! context.

use viewplan_obs::{policy, set_policy, CtxGuard};

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
}

/// The engine's bits of the request context's policy word (bits 0–1, as
/// allocated in `crates/obs/src/ctx.rs`): 0 = no override, else the
/// overriding engine's discriminant plus one.
const POLICY_MASK: u32 = 0b11;

/// The engine the current thread's evaluations run on: the innermost
/// [`install`]ed override, else [`Engine::default`].
pub(crate) fn current_engine() -> Engine {
    match policy() & POLICY_MASK {
        1 => Engine::Row,
        2 => Engine::Columnar,
        _ => Engine::default(),
    }
}

/// Pins `engine` for the current thread until the returned guard drops.
/// Nests: dropping restores the previous override.
pub fn install(engine: Engine) -> CtxGuard {
    set_policy(POLICY_MASK, engine as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for e in [Engine::Row, Engine::Columnar] {
            let _g = install(e);
            assert_eq!(
                current_engine(),
                e,
                "the policy bits decode to what was installed"
            );
        }
    }
}
