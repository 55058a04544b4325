//! The crash-recovery contract shared by every solver in the crate.
//!
//! A solver stage is made resilient by wrapping each node's program in
//! [`Redundant`] time redundancy: the stretch factor `S` comes from
//! [`redundancy_for`] applied to the stage's *closed-form* round bound
//! (the same figure [`crate::bounds`] degrades, so the audit and the
//! execution always agree), and the engine's round cap becomes the
//! degraded stage budget. The contract is:
//!
//! * under any seeded [`FaultPlan`] with a quiet period after the last
//!   fault, the run still produces a valid output;
//! * its awake/round usage stays within
//!   [`crate::bounds::degraded_budget_for`];
//! * the run is bit-for-bit identical on the serial engine and the
//!   worker-pool executor at any worker count.
//!
//! With an absent or inactive plan nothing is wrapped and the stage
//! executes exactly as its fault-free counterpart — same config, same
//! engine path, same metrics. Every solver in the crate runs its stages
//! through [`run_stage`], so this module is where the crate builds its
//! [`Engine`]s: the executor choice (serial or worker pool) and the
//! fault handling are made here once, and each solver has one body.

use awake_graphs::Graph;
use awake_sleeping::{
    redundancy_for, Codec, Config, Engine, FaultPlan, Persist, Program, Redundant, Round, Run,
    SimError,
};

/// The time-redundancy sizing of one stage under an active `plan`: the
/// stretch factor `S` that [`redundancy_for`] picks for the stage's
/// closed-form round bound `base_rounds` on `n` nodes, and `config` with
/// its round cap raised to the degraded stage budget
/// ([`crate::bounds::degraded_stage_rounds`]). [`run_stage`] applies it;
/// callers that drive the engine themselves (to checkpoint, say) wrap
/// their programs as `Redundant::new(p, S)` and run under the returned
/// config.
pub fn redundant_sizing(
    plan: &FaultPlan,
    n: usize,
    base_rounds: u64,
    config: Config,
) -> (Round, Config) {
    let s = redundancy_for(plan, n, base_rounds);
    let cfg = Config {
        max_rounds: crate::bounds::degraded_stage_rounds(base_rounds, s, plan),
        ..config
    };
    (s, cfg)
}

/// Execute one solver stage under the recovery contract.
///
/// `config` is the stage's fault-free engine configuration, used verbatim
/// when `plan` is absent or inactive. `base_rounds` is the stage's
/// closed-form round bound — the input to [`redundant_sizing`].
/// `workers` selects the worker-pool executor (`None`: the serial
/// engine); both produce identical results.
///
/// # Errors
/// Propagates engine errors.
pub fn run_stage<P>(
    g: &Graph,
    programs: Vec<P>,
    config: Config,
    base_rounds: u64,
    plan: Option<&FaultPlan>,
    workers: Option<usize>,
) -> Result<Run<P::Output>, SimError>
where
    P: Program + Persist + Send,
    P::Msg: Codec,
{
    match plan.filter(|p| p.is_active()) {
        None => Engine::with_workers(g, config, workers).run(programs),
        Some(pl) => {
            let (s, cfg) = redundant_sizing(pl, g.n(), base_rounds, config);
            let wrapped: Vec<Redundant<P>> =
                programs.into_iter().map(|p| Redundant::new(p, s)).collect();
            Engine::with_workers(g, cfg, workers).run_faulty(wrapped, pl)
        }
    }
}
