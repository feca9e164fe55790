//! `publish-steady` and `churn-faults`: distinct closed-loop publications
//! on a converged Facebook-preset overlay, without and with churn and
//! injected faults.

use crate::check::check_tree;
use crate::gen::{ChurnScript, Publishers, Rng};
use crate::report::{Digest, Outcome};
use crate::{
    digest_convergence, end_to_end, threads, wire, Ctx, Phase, Setups, Tally, DATASET_SEED,
};
use osn_graph::datasets::Dataset;
use osn_obs::Observer;
use osn_sim::FaultPlan;
use select_core::{SelectConfig, SelectNetwork};
use std::time::{Duration, Instant};

/// Peers of the publish workloads (Facebook preset).
pub const N: usize = 8000;
/// Share of peers that leave per churn epoch.
pub const CHURN_FRACTION: f64 = 0.02;
/// Publications per churn epoch.
pub const PUBS_PER_EPOCH: usize = 300;
/// Per-transmission drop probability on `churn-faults`.
pub const DROP_PROB: f64 = 0.05;
/// Retransmission budget on `churn-faults`.
pub const RETRY_MAX: usize = 3;
/// Churn epochs whose recovery and repair reports enter the digest; every
/// run makes at least this many.
pub const DIGEST_EPOCHS: u64 = 4;
/// Publications per tracing-on / tracing-off block of a traced
/// `publish-steady` run (blocks alternate to measure tracing overhead).
const TRACE_BLOCK: u64 = 256;

/// Publications per measurement window on `publish-steady` (see
/// [`Tally::close_window`]): one round of [`crate::gen::Publishers`], so
/// every window has every peer publish once. On `churn-faults` a window
/// closes at the first epoch end past [`crate::WINDOW_MIN`] publications.
pub const WINDOW_PUBS: u64 = N as u64;
/// `connections_of_into` calls timed per traced publication.
const CONNECTION_SPANS: usize = 4;

/// Facebook preset at `n` peers (the fixed data set).
pub fn graph(n: usize) -> osn_graph::SocialGraph {
    Dataset::Facebook.generate_with_nodes(n, DATASET_SEED)
}

/// Protocol configuration shared by every workload.
pub fn config() -> SelectConfig {
    SelectConfig::default()
        .with_seed(DATASET_SEED)
        .with_threads(threads())
}

/// Per-op wall times of traced and untraced operations in a traced run.
#[derive(Debug, Default)]
pub struct Overhead {
    on: (f64, u64),
    off: (f64, u64),
}

impl Overhead {
    pub fn note(&mut self, traced: bool, d: Duration) {
        let side = if traced { &mut self.on } else { &mut self.off };
        side.0 += d.as_secs_f64();
        side.1 += 1;
    }

    /// Extra mean time per traced operation, percent of the untraced mean.
    pub fn pct(&self) -> Option<f64> {
        let mean = |(t, n): (f64, u64)| (n > 0).then(|| t / n as f64);
        Some((mean(self.on)? / mean(self.off)? - 1.0) * 100.0)
    }
}

/// Reusable buffers of the publish loop.
#[derive(Default)]
pub struct Buffers {
    subs: Vec<u32>,
    conn: Vec<u32>,
}

/// Makes one timed publication, checks it and records it in `tally`.
/// `check_hops` additionally requires every hop to be a current overlay
/// connection (fault-free overlays only: reroutes may take other paths).
/// In a traced operation the layer calls around the publication are timed
/// as spans: the subscriber lookup, the hop checks' `connections_of_into`
/// and one `lookup` to a subscriber.
#[allow(clippy::too_many_arguments)]
pub fn publish_one(
    ctx: &mut Ctx,
    net: &SelectNetwork,
    b: u32,
    nonce: u64,
    check_hops: bool,
    tally: &mut Tally,
    buf: &mut Buffers,
    overhead: &mut Overhead,
) {
    let traced = ctx.tracer.on();
    let allocs_before = ctx.alloc.map(|f| f());
    let t = Instant::now();
    let open = ctx.tracer.enter("pubsub.publish", nonce);
    let report = net.publish_at(b, nonce);
    ctx.tracer.exit(open);
    let latency = t.elapsed();
    let allocs_after = ctx.alloc.map(|f| f());
    overhead.note(traced, latency);

    // Output check (untimed): the subscriber set is recomputed from the
    // overlay, not taken from the report under test.
    let open = ctx.tracer.enter("pubsub.online_friends", nonce);
    net.online_friends_into(b, &mut buf.subs);
    let ns = ctx.tracer.exit(open);
    ctx.layers.push_ns("pubsub.online_friends", ns);
    let checked = {
        let (tracer, layers, conn) = (&mut ctx.tracer, &mut ctx.layers, &mut buf.conn);
        // Spans for the first few hop checks only: a publication makes
        // dozens, and their timings differ little.
        let mut timed = 0;
        let mut hop = |u: u32, v: u32| {
            if timed < CONNECTION_SPANS {
                timed += 1;
                let open = tracer.enter("overlay.connections", nonce);
                net.connections_of_into(u, conn);
                layers.push_ns("overlay.connections", tracer.exit(open));
            } else {
                net.connections_of_into(u, conn);
            }
            conn.contains(&v)
        };
        let connected: Option<&mut dyn FnMut(u32, u32) -> bool> =
            if check_hops { Some(&mut hop) } else { None };
        check_tree(
            &report.tree,
            &buf.subs,
            |p| net.is_peer_online(p),
            connected,
        )
    };

    if traced {
        if let Some(&s) = buf
            .subs
            .get((nonce % buf.subs.len().max(1) as u64) as usize)
        {
            let open = ctx.tracer.enter("overlay.lookup", nonce);
            std::hint::black_box(net.lookup(b, s));
            ctx.layers.push_ns("overlay.lookup", ctx.tracer.exit(open));
        }
        let l = &mut ctx.layers;
        let relayed = checked.as_ref().is_ok_and(|s| s.relays > 0);
        l.push("pubsub.relayed", f64::from(u8::from(relayed)));
        let key = if relayed {
            "pubsub.relayed_publish"
        } else {
            "pubsub.direct_publish"
        };
        l.push(key, latency.as_nanos() as f64);
        l.push("pubsub.subscribers", buf.subs.len() as f64);
        if let (Some((a0, b0)), Some((a1, b1))) = (allocs_before, allocs_after) {
            l.push("pubsub.allocs", (a1 - a0) as f64);
            l.push("pubsub.alloc_bytes", (b1 - b0) as f64);
        }
        let d = &report.delivery;
        l.push("pubsub.retries", d.retries as f64);
        l.push("pubsub.reroutes", d.reroutes as f64);
        l.push("pubsub.drops", d.drops_injected as f64);
        l.push("pubsub.residual_losses", d.residual_losses as f64);
    }
    tally.record(latency, &report, buf.subs.len(), checked);
}

/// `publish-steady`: Facebook n=8000 converged during set-up, fault plan
/// off, distinct `publish_at` calls, every peer publishing once per round
/// in an order drawn from the seed. The traced run adds the loopback-TCP
/// leg ([`wire::leg`]).
pub fn steady(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.args.seed;
    let cfg = config();
    let mut setups = Setups::default();
    let (net, mut phase) = Phase::start(ctx, &mut setups, || graph(N), &cfg);
    let mut digest = Digest::default();
    digest_convergence(&mut digest, setups.report());

    let mut tally = Tally::default();
    let mut pubs = Publishers::new(seed, N);
    let mut buf = Buffers::default();
    let mut overhead = Overhead::default();
    let trace = ctx.trace();
    while !tally.enough() || !phase.over() {
        ctx.tracer
            .set_on(trace && (tally.publications / TRACE_BLOCK).is_multiple_of(2));
        let (b, nonce) = pubs.draw();
        publish_one(
            ctx,
            &net,
            b,
            nonce,
            true,
            &mut tally,
            &mut buf,
            &mut overhead,
        );
        if tally.publications.is_multiple_of(WINDOW_PUBS) {
            tally.close_window();
            phase.setup_if_due(ctx, &mut setups, || graph(N), &cfg);
        }
    }
    phase.finish_setups(ctx, &mut setups, || graph(N), &cfg);
    ctx.tracer.set_on(trace);
    let mut leg = None;
    if trace {
        if let Some(pct) = overhead.pct() {
            ctx.layers.push("bench.trace_overhead_pct", pct);
        }
        let pct = observed_overhead(ctx, &net, seed);
        ctx.layers.push("obs.observed_overhead_pct", pct);
        drop(net);
        leg = Some(wire::leg(ctx, seed));
    }
    let mut out = end_to_end(&setups, &mut tally, setups.notes(N, trace), digest);
    if let Some(mut leg) = leg {
        out.attempted += leg.publications;
        out.failed += leg.failed;
        out.correct &= leg.correct;
        out.notes.append(&mut leg.notes);
    }
    out
}

/// `publish_observed` (metrics on) against `publish_at` over one fixed
/// publisher sequence: best of five alternating passes each, as percent.
fn observed_overhead(ctx: &mut Ctx, net: &SelectNetwork, seed: u64) -> f64 {
    let mut rng = Rng::new(seed, 0x0B5);
    let seq: Vec<(u32, u64)> = (0..512u64)
        .map(|i| (rng.below(N as u32), 1 << 40 | i))
        .collect();
    let mut obs = Observer::for_peers(net.len());
    let (mut plain, mut observed) = (f64::INFINITY, f64::INFINITY);
    for pass in 0..5u64 {
        let open = ctx.tracer.enter("obs.plain_pass", pass);
        let t = Instant::now();
        for &(b, nonce) in &seq {
            std::hint::black_box(net.publish_at(b, nonce));
        }
        plain = plain.min(t.elapsed().as_secs_f64());
        ctx.tracer.exit(open);
        let open = ctx.tracer.enter("obs.observed_pass", pass);
        let t = Instant::now();
        for &(b, nonce) in &seq {
            std::hint::black_box(net.publish_observed(b, nonce, &mut obs));
        }
        observed = observed.min(t.elapsed().as_secs_f64());
        ctx.tracer.exit(open);
    }
    (observed / plain - 1.0) * 100.0
}

/// `churn-faults`: the publish-steady graph with 5% per-transmission drops
/// and three retries. Each epoch takes 2% of peers offline, brings the
/// previous epoch's leavers back, runs one `probe_round` and one repair
/// gossip round, then makes [`PUBS_PER_EPOCH`] publications from online
/// publishers.
pub fn churn(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.args.seed;
    let cfg = config()
        .with_fault_plan(FaultPlan::seeded(seed ^ 0xFA17).with_drop_prob(DROP_PROB))
        .with_retry_max(RETRY_MAX);
    let mut setups = Setups::default();
    let (mut net, mut phase) = Phase::start(ctx, &mut setups, || graph(N), &cfg);
    let mut digest = Digest::default();
    digest_convergence(&mut digest, setups.report());

    let mut tally = Tally::default();
    let mut pubs = Publishers::new(seed, N);
    let mut script = ChurnScript::new(seed, N, CHURN_FRACTION);
    let mut buf = Buffers::default();
    let mut overhead = Overhead::default();
    let trace = ctx.trace();
    let mut epoch = 0u64;
    while epoch < DIGEST_EPOCHS || !tally.enough() || !phase.over() {
        ctx.tracer.set_on(trace && epoch.is_multiple_of(2));
        let traced = ctx.tracer.on();
        let epoch_span = ctx.tracer.enter("churn.epoch", epoch);
        let (leave, back) = script.next_epoch();
        let t = Instant::now();
        for &p in &leave {
            let open = ctx.tracer.enter("network.set_offline", epoch);
            net.set_offline(p);
            ctx.layers
                .push_ns("network.set_offline", ctx.tracer.exit(open));
        }
        for &p in &back {
            let open = ctx.tracer.enter("network.set_online", epoch);
            net.set_online(p);
            ctx.layers
                .push_ns("network.set_online", ctx.tracer.exit(open));
        }
        let open = ctx.tracer.enter("recovery.probe_round", epoch);
        let rec = net.probe_round();
        ctx.layers
            .push_ns("recovery.probe_round", ctx.tracer.exit(open));
        let open = ctx.tracer.enter("gossip.repair_round", epoch);
        let tel = net.gossip_round_telemetry();
        ctx.layers
            .push_ns("gossip.repair_round", ctx.tracer.exit(open));
        tally.busy += t.elapsed();

        if epoch < DIGEST_EPOCHS {
            digest.words(leave.iter().chain(&back).map(|&p| u64::from(p)));
            digest.words(
                [
                    rec.probes,
                    rec.unresponsive,
                    rec.kept,
                    rec.replaced,
                    rec.dropped,
                    rec.evictions,
                    rec.evicted_relinked,
                    rec.eviction_losses,
                ]
                .map(|x| x as u64),
            );
            digest.words([
                tel.id_moves as u64,
                tel.link_changes as u64,
                tel.messages,
                tel.lsh_bucket_hits,
                tel.lsh_bucket_fallbacks,
            ]);
        }
        if traced {
            let l = &mut ctx.layers;
            for (key, v) in [
                ("recovery.probes", rec.probes),
                ("recovery.kept", rec.kept),
                ("recovery.replaced", rec.replaced),
                ("recovery.dropped", rec.dropped),
                ("recovery.eviction_losses", rec.eviction_losses),
                ("gossip.id_moves", tel.id_moves),
                ("gossip.link_changes", tel.link_changes),
            ] {
                l.push(key, v as f64);
            }
            l.push("gossip.messages", tel.messages as f64);
            l.push("gossip.bucket_hit_ratio", tel.bucket_hit_rate());
        }

        for _ in 0..PUBS_PER_EPOCH {
            let (b, nonce) = pubs.next_where(|p| !net.is_peer_online(p));
            publish_one(
                ctx,
                &net,
                b,
                nonce,
                false,
                &mut tally,
                &mut buf,
                &mut overhead,
            );
        }
        ctx.tracer.exit(epoch_span);
        tally.close_window();
        phase.setup_if_due(ctx, &mut setups, || graph(N), &cfg);
        epoch += 1;
    }
    phase.finish_setups(ctx, &mut setups, || graph(N), &cfg);
    ctx.tracer.set_on(trace);
    if let Some(pct) = overhead.pct() {
        ctx.layers.push("bench.trace_overhead_pct", pct);
    }
    let mut notes = setups.notes(N, trace);
    notes.push(format!(
        "churn: epochs={epoch} leavers/epoch={} pubs/epoch={PUBS_PER_EPOCH} \
         drop_prob={DROP_PROB} retry_max={RETRY_MAX}",
        script.per_epoch()
    ));
    end_to_end(&setups, &mut tally, notes, digest)
}
