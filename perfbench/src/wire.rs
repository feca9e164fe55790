//! The loopback-TCP leg of the traced `publish-steady` run: 120 socket
//! peers. Routing trees come from a converged overlay and are published
//! with `publish_over` (4 KiB payload, 10 s timeout, 3 retries, no faults).
//! It gives the `wire`, `codec` and `transport` per-layer metrics; it is
//! not an end-to-end workload (see `perfbench/README.md`).

use crate::check::{check_acks, check_tree};
use crate::gen::Publishers;
use crate::layers::Samples;
use crate::publish::{config, graph};
use crate::spans::{self_times, Tracer};
use crate::{build, Ctx, Tally};
use bytes::Bytes;
use osn_net::codec;
use osn_net::{publish_over, PeerAddr, SocketNetwork, Transport, TransportStats};
use osn_obs::SpanRecord;
use select_core::wire::{children_of, WireMsg};
use select_core::SelectNetwork;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket peers.
pub const N: usize = 120;
/// Payload per publication.
pub const PAYLOAD_BYTES: usize = 4 * 1024;
/// `publish_over` timeout and retry budget.
pub const TIMEOUT: Duration = Duration::from_secs(10);
pub const RETRY_MAX: u32 = 3;
/// Unmeasured publications before the measured phase. Every publication
/// opens ~25 one-shot loopback connections, and the kernel's TIME_WAIT
/// table fills to its cap within the first ~2,600; until it is full, runs
/// that start on an idle host measure faster than back-to-back runs.
pub const WARMUP_PUBS: u64 = 3000;
/// Traced publications after the warm-up.
pub const LEG_PUBS: u64 = 2000;

/// Bench-owned [`Transport`] wrapper timing the time spent inside
/// `send_to` and `recv_event` of the wrapped transport as spans.
struct Timed<'a, T: Transport> {
    inner: &'a mut T,
    tracer: &'a mut Tracer,
    layers: &'a mut Samples,
    op: u64,
}

impl<T: Transport> Transport for Timed<'_, T> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn send_to(&mut self, to: u32, msg: WireMsg) -> bool {
        let open = self.tracer.enter("transport.send", self.op);
        let ok = self.inner.send_to(to, msg);
        self.layers
            .push_ns("transport.send", self.tracer.exit(open));
        ok
    }

    fn recv_event(&mut self, timeout: Duration) -> Option<WireMsg> {
        let open = self.tracer.enter("transport.ack_wait", self.op);
        let ev = self.inner.recv_event(timeout);
        self.layers
            .push_ns("transport.ack_wait", self.tracer.exit(open));
        ev
    }

    fn drops_injected(&self) -> u64 {
        self.inner.drops_injected()
    }

    fn peer_addr(&self, peer: u32) -> Option<PeerAddr> {
        self.inner.peer_addr(peer)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }

    fn stats(&self) -> &TransportStats {
        self.inner.stats()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on)
    }

    fn tracing(&self) -> bool {
        self.inner.tracing()
    }

    fn drain_spans(&mut self) -> Vec<SpanRecord> {
        self.inner.drain_spans()
    }
}

/// Times one encode and one decode of `tree`'s Publish frame (traced
/// operations only) and checks the round trip.
fn time_codec(
    ctx: &mut Ctx,
    tree: &select_core::RoutingTree,
    payload: &Bytes,
    pub_id: u64,
) -> bool {
    let open = ctx.tracer.enter("wire.children_of", pub_id);
    let children = Arc::new(children_of(tree));
    ctx.layers
        .push_ns("wire.children_of", ctx.tracer.exit(open));
    let msg = WireMsg::Publish {
        pub_id,
        attempt: 0,
        publisher: tree.publisher,
        children,
        payload: payload.clone(),
        trace: None,
    };
    let open = ctx.tracer.enter("codec.encode", pub_id);
    let frame = codec::encode(&msg);
    ctx.layers.push_ns("codec.encode", ctx.tracer.exit(open));
    let Ok(frame) = frame else {
        return false;
    };
    let open = ctx.tracer.enter("codec.decode", pub_id);
    let decoded = codec::decode(&frame);
    ctx.layers.push_ns("codec.decode", ctx.tracer.exit(open));
    matches!(decoded, Ok((m, len)) if m == msg && len == frame.len())
}

/// Plans `b`'s routing tree on the converged overlay (fault-free, so the
/// nonce does not matter), checks it, publishes it over TCP as `pub_id`
/// and records the checked result. A traced publication also times the
/// codec on its Publish frame and records the transport counters; the
/// return value is false if that frame failed to round-trip.
fn publish_tcp(
    ctx: &mut Ctx,
    overlay: &SelectNetwork,
    sock: &mut SocketNetwork,
    b: u32,
    pub_id: u64,
    payload: &Bytes,
    tally: &mut Tally,
) -> bool {
    let traced = ctx.tracer.on();
    let planned = overlay.publish_at(b, 0);
    let mut subs = Vec::new();
    overlay.online_friends_into(b, &mut subs);
    let mut conn = Vec::new();
    let mut hop = |u: u32, v: u32| {
        overlay.connections_of_into(u, &mut conn);
        conn.contains(&v)
    };
    let tree_ok = check_tree(
        &planned.tree,
        &subs,
        |p| overlay.is_peer_online(p),
        Some(&mut hop),
    );
    let codec_ok = !traced || time_codec(ctx, &planned.tree, payload, pub_id);
    let before = traced.then(|| sock.stats().snapshot());

    let t = Instant::now();
    let open = ctx.tracer.enter("wire.publish", pub_id);
    let result = if traced {
        let mut timed = Timed {
            inner: sock,
            tracer: &mut ctx.tracer,
            layers: &mut ctx.layers,
            op: pub_id,
        };
        publish_over(
            &mut timed,
            &planned.tree,
            payload.clone(),
            TIMEOUT,
            RETRY_MAX,
            pub_id,
        )
    } else {
        publish_over(
            sock,
            &planned.tree,
            payload.clone(),
            TIMEOUT,
            RETRY_MAX,
            pub_id,
        )
    };
    ctx.tracer.exit(open);
    let latency = t.elapsed();

    if let Some(s0) = before {
        let s1 = sock.stats().snapshot();
        let l = &mut ctx.layers;
        let total = |s: &osn_net::StatsSnapshot| {
            [
                s.total_frames_tx(),
                s.total_bytes_tx(),
                s.reconnects,
                s.retransmissions,
                s.ack_window_expiries,
            ]
        };
        let keys = [
            "transport.frames",
            "codec.bytes",
            "transport.reconnects",
            "transport.retransmissions",
            "transport.ack_window_expiries",
        ];
        for ((key, a), b) in keys.into_iter().zip(total(&s0)).zip(total(&s1)) {
            l.push(key, (b - a) as f64);
        }
    }
    let checked = tree_ok.and_then(|s| check_acks(&planned.tree, &result.delivered_to).map(|()| s));
    tally.record(latency, &planned, subs.len(), checked);
    codec_ok
}

/// What the loopback-TCP leg adds to the traced run's outcome.
pub struct Leg {
    pub publications: u64,
    pub failed: u64,
    pub correct: bool,
    pub notes: Vec<String>,
}

/// The loopback-TCP leg of the traced `publish-steady` run: spawns [`N`]
/// socket peers, makes [`WARMUP_PUBS`] unmeasured publications, then
/// [`LEG_PUBS`] traced ones, each checked. Its overlay is built with
/// tracing off, so the n=120 set-up does not enter the graph, network and
/// gossip metrics of the n=8000 workload.
pub fn leg(ctx: &mut Ctx, seed: u64) -> Leg {
    ctx.tracer.set_on(false);
    let built = build(ctx, 0, || graph(N), config(), true);
    ctx.tracer.set_on(true);
    let converged = built.converge.is_some_and(|(_, r)| r.converged);
    let overlay = built.net;
    let open = ctx.tracer.enter("transport.spawn", 0);
    let sock = SocketNetwork::spawn(N);
    ctx.layers.push_ns("transport.spawn", ctx.tracer.exit(open));
    let mut notes = vec![format!(
        "wire leg: n={N} payload={PAYLOAD_BYTES}B timeout={TIMEOUT:?} retry_max={RETRY_MAX} \
         warm-up={WARMUP_PUBS} traced={LEG_PUBS} publications converged={converged}"
    )];
    let mut sock = match sock {
        Ok(s) => s,
        Err(e) => {
            notes.push(format!("check FAILED: loopback listeners: {e}"));
            return Leg {
                publications: 0,
                failed: 1,
                correct: false,
                notes,
            };
        }
    };

    let payload = Bytes::from(vec![0x5Eu8; PAYLOAD_BYTES]);
    let mut pubs = Publishers::new(seed, N);
    let mut tally = Tally::default();
    let mut codec_ok = true;
    for i in 0..WARMUP_PUBS + LEG_PUBS {
        ctx.tracer.set_on(i >= WARMUP_PUBS);
        let (b, pub_id) = pubs.draw();
        codec_ok &= publish_tcp(ctx, &overlay, &mut sock, b, pub_id, &payload, &mut tally);
    }
    ctx.tracer.set_on(true);
    sock.shutdown();
    let spans = ctx.tracer.spans();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if s.name == "wire.publish" {
            ctx.layers.push("wire.publish_self", self_ns as f64);
        }
    }
    if let Some(e) = &tally.first_error {
        notes.push(format!("check FAILED in the wire leg: {e}"));
    }
    if !codec_ok {
        notes.push("check FAILED: a Publish frame did not survive encode/decode".into());
    }
    if !converged {
        notes.push("check FAILED: the wire leg's overlay did not converge".into());
    }
    Leg {
        publications: tally.publications,
        failed: tally.failed,
        correct: tally.failed == 0 && codec_ok && converged,
        notes,
    }
}
