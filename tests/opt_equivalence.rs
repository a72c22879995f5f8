//! Optimizer equivalence suite: for every registered BRASIL scenario the
//! optimized plan must be **bit-identical** to the unoptimized one — the
//! conformance bar of the pass pipeline (`brasil::optimize`). Three angles:
//!
//! * Proptests (named `opt_*` so CI can select them) drive each
//!   `brasil-*` scenario against its [`brasil_unoptimized`] twin through
//!   `brace_core::Simulation` over random populations, seeds, index
//!   kinds and tick counts, under **both** query kernels. This pins the
//!   whole pipeline — const-fold, CSE, dead-code, visibility-predicate
//!   pushdown (the shrunken probe rect must not drop a contributing
//!   candidate) and lane-kernel emission (`query_batch` ≡ interpreter).
//! * A forced-engagement test flips [`BrasilBehavior::with_batch_engagement`]
//!   on for the scripts whose cost estimate keeps them scalar, so the lane
//!   path is exercised even where `batch_profitable` says "don't bother".
//! * A backend sweep: single node vs a 2-worker cluster × optimized vs
//!   unoptimized on the registry conformance configurations — all four
//!   checksums must agree (the optimizer must be unobservable to the
//!   distributed runtime too).
//!
//! The predator twin shares effect inversion with the registered form
//! (inversion is only ~1e-9-equivalent, so both sides of the A/B carry
//! it); everything else the pipeline does is bit-exact by construction.

use brace::core::{Agent, Behavior, QueryKernel, Simulation};
use brace::scenario::{brasil_unoptimized, Backend, Registry, Runner, Scenario};
use brace_common::{AgentId, DetRng, Vec2};
use proptest::prelude::*;

/// Every registered BRASIL scenario (asserted against the registry so a
/// new `brasil-*` workload cannot silently dodge this suite).
const BRASIL_SCENARIOS: [&str; 3] = ["brasil-fish", "brasil-predator", "brasil-car"];

fn any_index_kind() -> impl Strategy<Value = brace::spatial::IndexKind> {
    prop::sample::select(vec![
        brace::spatial::IndexKind::Scan,
        brace::spatial::IndexKind::KdTree,
        brace::spatial::IndexKind::Grid,
    ])
}

fn any_brasil_scenario() -> impl Strategy<Value = &'static str> {
    prop::sample::select(BRASIL_SCENARIOS.to_vec())
}

/// Bitwise world equality — stricter than `Agent == Agent` (which treats
/// `0.0 == -0.0`), because the optimizer contract is bit-identity.
fn worlds_bit_identical(label: &str, a: &[Agent], b: &[Agent]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{label}: world sizes differ: {} vs {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(b) {
        let same = x.id == y.id
            && x.alive == y.alive
            && x.pos.x.to_bits() == y.pos.x.to_bits()
            && x.pos.y.to_bits() == y.pos.y.to_bits()
            && x.state.len() == y.state.len()
            && x.state.iter().zip(&y.state).all(|(u, v)| u.to_bits() == v.to_bits())
            && x.effects.len() == y.effects.len()
            && x.effects.iter().zip(&y.effects).all(|(u, v)| u.to_bits() == v.to_bits());
        if !same {
            return Err(format!("{label}: agent {} diverged:\n  a: {:?}\n  b: {:?}", x.id, x, y));
        }
    }
    Ok(())
}

/// Build `name` (optimized from the registry, or its unoptimized twin),
/// run it on the single-node executor, and return the final world.
fn run_world(
    name: &str,
    optimize: bool,
    n: usize,
    seed: u64,
    kind: brace::spatial::IndexKind,
    kernel: QueryKernel,
    ticks: u64,
) -> Vec<Agent> {
    let setup = if optimize {
        Registry::builtin().get(name).expect("registered scenario").build(Some(n), seed).unwrap()
    } else {
        brasil_unoptimized(name).expect("unoptimized twin").build(Some(n), seed).unwrap()
    };
    let mut exec = Simulation::new(setup.behavior, setup.population, kind, seed);
    exec.set_query_kernel(kernel);
    exec.run(ticks);
    exec.agents()
}

#[test]
fn opt_suite_covers_every_registered_brasil_scenario() {
    let registry = Registry::builtin();
    let brasil: Vec<&str> = registry.names().into_iter().filter(|n| n.starts_with("brasil-")).collect();
    assert_eq!(brasil, BRASIL_SCENARIOS.to_vec(), "update BRASIL_SCENARIOS to match the registry");
    for name in BRASIL_SCENARIOS {
        assert!(brasil_unoptimized(name).is_some(), "`{name}` has no unoptimized twin");
        // Twins share the registered name so populations/configs line up.
        assert_eq!(brasil_unoptimized(name).unwrap().name(), name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole conformance bar: for every BRASIL scenario, random
    /// population size / seed / index kind / horizon, the optimized plan
    /// equals the unoptimized one bit for bit — under the batched kernel
    /// (probe-rect pushdown + lane emission live) *and* the scalar kernel
    /// (pushdown + interpreter), and the two kernels agree with each other.
    #[test]
    fn opt_pipeline_is_bit_identical_to_unoptimized(
        name in any_brasil_scenario(),
        n in 20usize..120,
        seed in 0u64..10_000,
        kind in any_index_kind(),
        ticks in 1u64..4,
    ) {
        let run = |optimize, kernel| run_world(name, optimize, n, seed, kind, kernel, ticks);
        let opt_batched = run(true, QueryKernel::Batched);
        worlds_bit_identical(
            &format!("{name} batched opt vs no-opt"),
            &opt_batched,
            &run(false, QueryKernel::Batched),
        )?;
        let opt_scalar = run(true, QueryKernel::Scalar);
        worlds_bit_identical(
            &format!("{name} scalar opt vs no-opt"),
            &opt_scalar,
            &run(false, QueryKernel::Scalar),
        )?;
        worlds_bit_identical(&format!("{name} batched vs scalar"), &opt_batched, &opt_scalar)?;
    }

    /// Forced lane engagement: the car and (inverted) predator lane
    /// programs fall under the profitability threshold, so the adaptive
    /// hint keeps them scalar by default. Force the hint on and the lane
    /// kernel must still be bit-identical to the interpreter — the
    /// cost model is a *performance* policy, never a correctness gate.
    #[test]
    fn opt_forced_batch_engagement_matches_interpreter(
        which in prop::sample::select(vec!["car", "predator"]),
        n in 10usize..80,
        seed in 0u64..10_000,
        kind in any_index_kind(),
        ticks in 1u64..4,
    ) {
        let behavior = match which {
            "car" => brace::models::scripts::car_following_opt(true).unwrap(),
            _ => brace::models::scripts::predator_opt(true, true).unwrap(),
        };
        prop_assert!(
            !behavior.batch_profitable(),
            "{which} became batch-profitable; this test wants a forced-engagement subject"
        );
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(seed);
        let agents: Vec<Agent> = (0..n)
            .map(|i| {
                let mut a = Agent::new(
                    AgentId::new(i as u64),
                    Vec2::new(rng.range(-10.0, 10.0), rng.range(-10.0, 10.0)),
                    &schema,
                );
                a.state[0] = rng.range(0.5, 1.5);
                a
            })
            .collect();
        let run = |kernel| {
            let forced = behavior.clone().with_batch_engagement(true);
            let mut exec = Simulation::new(forced, agents.clone(), kind, seed);
            exec.set_query_kernel(kernel);
            exec.run(ticks);
            exec.agents()
        };
        worlds_bit_identical(
            &format!("{which} forced-batch vs scalar"),
            &run(QueryKernel::Batched),
            &run(QueryKernel::Scalar),
        )?;
    }
}

/// The optimizer is unobservable to the distributed runtime: on each
/// BRASIL scenario's conformance configuration, single node vs a 2-worker
/// cluster × optimized vs unoptimized — all four checksums identical.
#[test]
fn opt_pipeline_is_unobservable_across_backends() {
    const TICKS: u64 = 12;
    const SEED: u64 = 42;
    let registry = Registry::builtin();
    for name in BRASIL_SCENARIOS {
        let optimized = registry.get(name).unwrap();
        let unoptimized = brasil_unoptimized(name).unwrap();
        let run = |scenario: &dyn Scenario, backend: Backend| {
            Runner::new(scenario)
                .seed(SEED)
                .conformance()
                .backend(backend)
                .run(TICKS)
                .unwrap_or_else(|e| panic!("scenario `{name}` failed: {e}"))
                .checksum
        };
        let base = run(optimized, Backend::single());
        for (label, sum) in [
            ("optimized cluster", run(optimized, Backend::cluster(2))),
            ("unoptimized single", run(unoptimized.as_ref(), Backend::single())),
            ("unoptimized cluster", run(unoptimized.as_ref(), Backend::cluster(2))),
        ] {
            assert_eq!(
                base, sum,
                "scenario `{name}`: {label} diverged from optimized single node \
                 ({base:#018X} vs {sum:#018X})"
            );
        }
    }
}
