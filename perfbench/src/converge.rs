//! Round-by-round convergence for the traced run: the same loop as
//! `SelectNetwork::converge`, with every gossip round timed as a span.

use crate::{Ctx, MAX_ROUNDS};
use select_core::{ConvergenceReport, ConvergenceTelemetry, SelectNetwork};
use std::time::Instant;

/// Drives `gossip_round_telemetry` round by round under `converge`'s
/// stability-window rule, timing each round as a span classified by what
/// it changed.
pub fn traced_converge(ctx: &mut Ctx, net: &mut SelectNetwork) -> ConvergenceReport {
    let window = net.config().stability_window;
    let mut telemetry = ConvergenceTelemetry::new(crate::threads());
    let (mut quiet, mut rounds, mut converged) = (0usize, 0usize, false);
    let t = Instant::now();
    for round in 1..=MAX_ROUNDS {
        let open = ctx.tracer.enter("gossip.round", round as u64);
        let tel = net.gossip_round_telemetry();
        let ns = ctx.tracer.exit(open);
        let key = if tel.id_moves > 0 {
            "gossip.moving_round"
        } else if tel.link_changes > 0 {
            "gossip.settling_round"
        } else {
            "gossip.quiet_round"
        };
        let l = &mut ctx.layers;
        l.push_ns(key, ns);
        l.push("gossip.id_moves", tel.id_moves as f64);
        l.push("gossip.link_changes", tel.link_changes as f64);
        l.push("gossip.messages", tel.messages as f64);
        l.push("gossip.bucket_hit_ratio", tel.bucket_hit_rate());
        let quiescent = tel.is_quiescent();
        telemetry.rounds.push(tel);
        rounds = round;
        if quiescent {
            quiet += 1;
            if quiet >= window {
                converged = true;
                break;
            }
        } else {
            quiet = 0;
        }
    }
    telemetry.total_wall_nanos = t.elapsed().as_nanos() as u64;
    ConvergenceReport {
        rounds,
        converged,
        telemetry,
    }
}
