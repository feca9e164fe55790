//! The SELECT repository benchmark: two workloads, each one process with
//! a single closed-loop client (it issues the next operation only after
//! the previous one returned). See `perfbench/README.md` for the workload
//! table, the metric map and how to run it.
//!
//! The `perfbench` binary prints the end-to-end metrics; the
//! `perfbench-traced` binary records spans around every call into a
//! layer's public functions and prints the per-layer metrics computed from
//! them (`run.py --trace 0|1` picks the binary).

pub mod check;
pub mod converge;
pub mod gen;
pub mod layers;
pub mod publish;
pub mod report;
pub mod spans;
pub mod stats;
pub mod wire;

use check::{CheckError, PathStats};
use osn_graph::SocialGraph;
use report::{Digest, Metrics, Outcome};
use select_core::{ConvergenceReport, DisseminationReport, SelectConfig, SelectNetwork};
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Returns `(allocations, bytes requested)` since process start; installed
/// by the traced binary, whose global allocator counts.
pub type AllocProbe = fn() -> (u64, u64);

/// Seed of the generated data set (the social graph) and of the protocol
/// configuration. Both are fixed, like the paper's Table II data sets:
/// `--seed` draws the operations run against them (publishers, churn
/// scripts, fault draws), so the spread across seeds measures the system,
/// not a different graph per seed. With the graph drawn from `--seed`,
/// convergence took 9 to 11 rounds across seeds 2 to 6, moving
/// `converge_s` by about 11%.
pub const DATASET_SEED: u64 = 0x5E1EC7;
/// Gossip round cap handed to `converge`.
pub const MAX_ROUNDS: usize = 300;
/// Publications whose outputs enter the digest and the path-quality
/// metrics (`delivered_frac`, `avg_hops`, `avg_relays`). Every run makes
/// at least this many, whatever its time budget, so those metrics are a
/// function of the seed alone. Over the first 1,000 publications
/// `avg_relays` spread 0.04–0.055 across ten seeds (quartile distance over
/// median); 8,000 shrink the publisher sampling noise by about √8.
pub const DIGEST_PUBS: usize = 8000;
/// Fewest publications in a measurement window: enough for ten samples
/// beyond the window's p99.
pub const WINDOW_MIN: usize = 1000;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PublishSteady,
    ChurnFaults,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PublishSteady, Workload::ChurnFaults];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PublishSteady => "publish-steady",
            Workload::ChurnFaults => "churn-faults",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub spans_out: Option<PathBuf>,
    pub rustc: String,
    pub commit: String,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S` plus the optional `--spans-out FILE --rustc V --commit C`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let (mut workload, mut seed, mut seconds) = (None, None, None);
        let mut args = Args {
            workload: Workload::PublishSteady,
            seed: 0,
            seconds: 0.0,
            spans_out: None,
            rustc: "unknown".into(),
            commit: "unknown".into(),
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("unknown workload"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
                "--rustc" => args.rustc = value,
                "--commit" => args.commit = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        Ok(args)
    }
}

/// Per-run context shared by the workloads.
pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    pub layers: layers::Samples,
    pub alloc: Option<AllocProbe>,
}

impl Ctx {
    /// Whether this is the traced run: only the traced binary passes an
    /// allocation probe.
    pub fn trace(&self) -> bool {
        self.alloc.is_some()
    }
}

/// Entry point of both binaries; the traced one passes its allocation
/// probe.
pub fn main_with(alloc: Option<AllocProbe>) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        tracer: Tracer::new(alloc.is_some()),
        layers: layers::Samples::default(),
        alloc,
        args,
    };
    let mut notes = report::host_block(&ctx.args.rustc, &ctx.args.commit);
    notes.push(format!(
        "workload: {} seed={} seconds={} trace={} client=closed-loop clients=1 threads={}",
        ctx.args.workload.name(),
        ctx.args.seed,
        ctx.args.seconds,
        u8::from(ctx.trace()),
        threads()
    ));
    let mut outcome = match ctx.args.workload {
        Workload::PublishSteady => publish::steady(&mut ctx),
        Workload::ChurnFaults => publish::churn(&mut ctx),
    };
    notes.append(&mut outcome.notes);
    outcome.notes = notes;
    if ctx.trace() {
        outcome.metrics = layers::per_layer(&ctx.layers);
        if let Some(path) = &ctx.args.spans_out {
            match write_spans(&ctx.tracer, path) {
                Ok(()) => outcome.notes.push(format!(
                    "spans: {} written to {}",
                    ctx.tracer.spans().len(),
                    path.display()
                )),
                Err(e) => {
                    eprintln!("perfbench: writing spans to {}: {e}", path.display());
                    return ExitCode::from(1);
                }
            }
        }
    }
    report::print(&outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_spans(tracer: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    tracer.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// Round-loop worker threads: the machine's available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One set-up: generate, bootstrap and optionally converge, each timed as
/// a span of operation `op`.
pub struct Built {
    pub net: SelectNetwork,
    pub total: Duration,
    pub converge: Option<(Duration, ConvergenceReport)>,
}

/// Builds a network over a freshly generated graph. In the traced run,
/// set-ups after the first converge round by round
/// ([`converge::traced_converge`]); [`Setups::reproducible`] then requires
/// their reports to equal the first set-up's plain `converge` exactly.
pub fn build(
    ctx: &mut Ctx,
    op: u64,
    graph: impl FnOnce() -> SocialGraph,
    cfg: SelectConfig,
    converge: bool,
) -> Built {
    let t0 = Instant::now();
    let open = ctx.tracer.enter("graph.generate", op);
    let graph = Arc::new(graph());
    ctx.layers.push_ns("graph.generate", ctx.tracer.exit(open));
    let open = ctx.tracer.enter("network.bootstrap", op);
    let mut net = SelectNetwork::bootstrap(graph, cfg);
    ctx.layers
        .push_ns("network.bootstrap", ctx.tracer.exit(open));
    let converge = converge.then(|| {
        let t = Instant::now();
        let open = ctx.tracer.enter("gossip.converge", op);
        let report = if ctx.tracer.on() && op > 0 {
            converge::traced_converge(ctx, &mut net)
        } else {
            net.converge(MAX_ROUNDS)
        };
        ctx.tracer.exit(open);
        (t.elapsed(), report)
    });
    Built {
        net,
        total: t0.elapsed(),
        converge,
    }
}

/// Times and reports of a workload's repeated set-ups.
#[derive(Debug, Default)]
pub struct Setups {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Seconds per converge.
    pub converge_s: Vec<f64>,
    first: Option<ConvergenceReport>,
    /// Every set-up converged, to a report equal to the first one.
    pub reproducible: bool,
}

impl Setups {
    /// Records one converging set-up.
    pub fn add(&mut self, setup: Duration, (converge, report): (Duration, ConvergenceReport)) {
        self.setup_s.push(setup.as_secs_f64());
        self.converge_s.push(converge.as_secs_f64());
        match &self.first {
            None => {
                self.reproducible = report.converged;
                self.first = Some(report);
            }
            Some(first) => self.reproducible &= report == *first,
        }
    }

    /// The first set-up's convergence report.
    pub fn report(&self) -> &ConvergenceReport {
        self.first.as_ref().expect("at least one set-up")
    }

    /// Set-up notes for the output, with the check that fails the run.
    pub fn notes(&self, n: usize, trace: bool) -> Vec<String> {
        let r = self.report();
        let mut notes = vec![format!(
            "setup: n={n} rounds={} converged={} set-ups={}",
            r.rounds,
            r.converged,
            self.setup_s.len()
        )];
        if trace {
            notes.push(format!(
                "traced: round-by-round converges reproduce converge (rounds, telemetry): {}",
                self.reproducible
            ));
        }
        if !self.reproducible {
            notes.push("check FAILED: a set-up did not converge to the first one's report".into());
        }
        notes
    }
}

/// Set-ups per run. The first builds the network the workload measures;
/// the others build fresh copies, spread evenly over the measured phase,
/// and drop them. The host's speed drifts in phases of about 5 to 30 s
/// (a fixed ALU loop ranged 250–450 ms on the development host), so set-ups
/// made back to back would all land in one phase; spread out, their median
/// spans several.
pub const SETUPS: usize = 5;

/// The measured phase: its clock, which leaves out the set-ups made
/// during it, and the set-ups spread over it.
pub struct Phase {
    start: Instant,
    budget: Duration,
    in_setups: Duration,
}

impl Phase {
    /// Makes the first set-up and starts the measured phase of `--seconds`.
    pub fn start(
        ctx: &mut Ctx,
        acc: &mut Setups,
        graph: impl Fn() -> SocialGraph,
        cfg: &SelectConfig,
    ) -> (SelectNetwork, Phase) {
        let built = build(ctx, 0, graph, cfg.clone(), true);
        acc.add(built.total, built.converge.expect("converging set-up"));
        let phase = Phase {
            start: Instant::now(),
            budget: Duration::from_secs_f64(ctx.args.seconds),
            in_setups: Duration::ZERO,
        };
        (built.net, phase)
    }

    /// Measured time so far.
    pub fn measured(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.in_setups)
    }

    /// Whether the measured time reached `--seconds`.
    pub fn over(&self) -> bool {
        self.measured() >= self.budget
    }

    /// Makes the next set-up if it is due: set-up `k` once `k / SETUPS` of
    /// the budget is measured.
    pub fn setup_if_due(
        &mut self,
        ctx: &mut Ctx,
        acc: &mut Setups,
        graph: impl Fn() -> SocialGraph,
        cfg: &SelectConfig,
    ) {
        let k = acc.setup_s.len();
        if k < SETUPS && self.measured() * SETUPS as u32 >= self.budget * k as u32 {
            self.setup(ctx, acc, graph, cfg);
        }
    }

    /// Makes the set-ups still missing at the end of the measured phase.
    pub fn finish_setups(
        &mut self,
        ctx: &mut Ctx,
        acc: &mut Setups,
        graph: impl Fn() -> SocialGraph,
        cfg: &SelectConfig,
    ) {
        while acc.setup_s.len() < SETUPS {
            self.setup(ctx, acc, &graph, cfg);
        }
    }

    /// One more set-up, its time left out of the measured clock. In the
    /// traced run every set-up is traced, whichever tracing block the
    /// publications are in.
    fn setup(
        &mut self,
        ctx: &mut Ctx,
        acc: &mut Setups,
        graph: impl Fn() -> SocialGraph,
        cfg: &SelectConfig,
    ) {
        let t = Instant::now();
        let block = ctx.tracer.on();
        ctx.tracer.set_on(ctx.trace());
        let built = build(ctx, acc.setup_s.len() as u64, graph, cfg.clone(), true);
        acc.add(built.total, built.converge.expect("converging set-up"));
        drop(built.net);
        ctx.tracer.set_on(block);
        self.in_setups += t.elapsed();
    }
}

/// Deterministic summary of a convergence report for the digest.
pub fn digest_convergence(d: &mut Digest, r: &ConvergenceReport) {
    d.word(r.rounds as u64);
    d.word(u64::from(r.converged));
    for t in &r.telemetry.rounds {
        d.words([
            t.round,
            t.id_moves as u64,
            t.id_movement.to_bits(),
            t.link_changes as u64,
            t.messages,
            t.lsh_bucket_hits,
            t.lsh_bucket_fallbacks,
        ]);
    }
}

/// End-to-end tally of the publications of a measured phase.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client-observed latency of each publication, µs.
    pub lat_us: Vec<f64>,
    /// Wall time of the timed operations of the measured phase (the
    /// publications, plus churn/probe/repair steps on `churn-faults`);
    /// the output checker's own work is excluded.
    pub busy: Duration,
    /// `(publications, busy)` at the end of each closed window; see
    /// [`Tally::close_window`].
    windows: Vec<(usize, Duration)>,
    pub publications: u64,
    pub failed: u64,
    /// Subscribers, deliveries and delivered-path totals of the first
    /// [`DIGEST_PUBS`] publications. A publication that fails its check
    /// adds its subscribers but no deliveries.
    pub subscribers: u64,
    pub delivered: u64,
    pub paths: PathStats,
    pub first_error: Option<String>,
    pub digest: Digest,
    digested: usize,
}

impl Tally {
    /// Records one publication: its latency and its checked output, and
    /// for the first [`DIGEST_PUBS`] its path totals and its deterministic
    /// output in the digest.
    pub fn record(
        &mut self,
        latency: Duration,
        report: &DisseminationReport,
        subscribers: usize,
        checked: Result<PathStats, CheckError>,
    ) {
        self.busy += latency;
        self.lat_us.push(latency.as_secs_f64() * 1e6);
        self.publications += 1;
        let prefix = self.digested < DIGEST_PUBS;
        let checked = checked.and_then(|s| {
            if s.delivered == report.delivered && report.subscribers == subscribers {
                Ok(s)
            } else {
                Err(CheckError::Unaccounted {
                    subscribers,
                    accounted: report.delivered,
                })
            }
        });
        match checked {
            Ok(s) if prefix => {
                self.delivered += s.delivered as u64;
                self.paths.delivered += s.delivered;
                self.paths.hops += s.hops;
                self.paths.relays += s.relays;
            }
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert_with(|| format!("publication from {}: {e}", report.publisher));
            }
        }
        if prefix {
            self.digested += 1;
            self.subscribers += subscribers as u64;
            let tree = &report.tree;
            self.digest.words([
                u64::from(report.publisher),
                report.delivered as u64,
                tree.failed.len() as u64,
            ]);
            self.digest.words(tree.failed.iter().map(|&p| u64::from(p)));
            for path in tree.paths() {
                self.digest.word(path.len() as u64);
                self.digest.words(path.iter().map(|&p| u64::from(p)));
            }
        }
    }

    /// Closes the current window of the measured phase. The timing
    /// metrics are medians over windows (rate, p50, p99 of each): a host
    /// stall then moves one window, not the whole run's figure. A window
    /// shorter than [`WINDOW_MIN`] publications stays open.
    pub fn close_window(&mut self) {
        let (p0, _) = self.windows.last().copied().unwrap_or_default();
        if self.lat_us.len() - p0 >= WINDOW_MIN {
            self.windows.push((self.lat_us.len(), self.busy));
        }
    }

    /// Per-window `(rate 1/s, p50 us, p99 us)`. Publications after the last
    /// closed window join it, so no sample is left out.
    pub fn window_stats(&self) -> Vec<(f64, f64, f64)> {
        let mut ends = self.windows.clone();
        match ends.last_mut() {
            Some(last) => *last = (self.lat_us.len(), self.busy),
            None => ends.push((self.lat_us.len(), self.busy)),
        }
        let mut prev = (0, Duration::ZERO);
        let mut out = Vec::with_capacity(ends.len());
        for &(p, b) in &ends {
            let mut lat = self.lat_us[prev.0..p].to_vec();
            if let Some(s) = stats::Summary::of(&mut lat) {
                out.push((
                    (p - prev.0) as f64 / (b - prev.1).as_secs_f64(),
                    s.p50,
                    s.p99,
                ));
            }
            prev = (p, b);
        }
        out
    }

    /// Whether enough publications were made (digest prefix complete and
    /// at least ten samples beyond p99).
    pub fn enough(&self) -> bool {
        self.digested >= DIGEST_PUBS && self.lat_us.len() >= WINDOW_MIN
    }
}

/// The outcome of a run with the ten end-to-end metrics, in
/// `BENCHMARK.json` order.
pub fn end_to_end(
    setups: &Setups,
    t: &mut Tally,
    mut notes: Vec<String>,
    mut digest: Digest,
) -> Outcome {
    let windows = t.window_stats();
    let column = |f: fn(&(f64, f64, f64)) -> f64| {
        let v: Vec<f64> = windows.iter().map(f).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let lat = stats::Summary::of(&mut t.lat_us);
    let mut m = Metrics::default();
    m.put(
        "setup_s",
        "s",
        stats::median(&setups.setup_s).unwrap_or(0.0),
        setups.setup_s.len(),
    );
    let n = t.lat_us.len();
    m.put("publish_per_s", "1/s", column(|w| w.0), n);
    m.put("publish_p50_us", "us", column(|w| w.1), n);
    m.put("publish_p99_us", "us", column(|w| w.2), n);
    notes.push(format!(
        "throughput: {} publications in {:.3}s of timed operations ({:.1}/s overall); \
             rate, p50 and p99 are medians over {} windows of >= {WINDOW_MIN}",
        t.publications,
        t.busy.as_secs_f64(),
        t.publications as f64 / t.busy.as_secs_f64().max(f64::MIN_POSITIVE),
        windows.len()
    ));
    m.put(
        "delivered_frac",
        "ratio",
        t.delivered as f64 / (t.subscribers.max(1)) as f64,
        t.subscribers as usize,
    );
    let paths = t.paths.delivered.max(1) as f64;
    m.put(
        "avg_hops",
        "count",
        t.paths.hops as f64 / paths,
        t.paths.delivered,
    );
    m.put(
        "avg_relays",
        "count",
        t.paths.relays as f64 / paths,
        t.paths.delivered,
    );
    m.put(
        "converge_s",
        "s",
        stats::median(&setups.converge_s).unwrap_or(0.0),
        setups.converge_s.len(),
    );
    let rounds = setups.report().rounds;
    m.put("converge_rounds", "count", rounds as f64, 1);
    m.put("peak_rss_mb", "MiB", report::peak_rss_mib(), 1);
    if let Some(s) = lat {
        notes.push(format!(
            "latency (whole run): n={} p50={:.1}us p99={:.1}us beyond_p99={} (ten-beyond rule {})",
            s.n,
            s.p50,
            s.p99,
            stats::beyond(s.n, 99.0),
            if s.p99_supported() { "met" } else { "NOT met" }
        ));
    }
    if let Some(e) = &t.first_error {
        notes.push(format!("check FAILED: {e}"));
    }
    digest.word(t.digest.value());
    Outcome {
        correct: t.failed == 0 && lat.is_some_and(|s| s.p99_supported()) && setups.reproducible,
        attempted: t.publications,
        failed: t.failed,
        metrics: m,
        digest: digest.value(),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records a publication with `subs` subscribers, all delivered over
    /// two-hop paths.
    fn record_with(t: &mut Tally, us: u64, subs: usize) {
        let report = DisseminationReport {
            publisher: 0,
            subscribers: subs,
            delivered: subs,
            avg_hops: 0.0,
            avg_relays: 0.0,
            total_relays: 0,
            delivery: Default::default(),
            tree: select_core::RoutingTree::new(0),
        };
        let paths = PathStats {
            delivered: subs,
            hops: 2 * subs,
            relays: 0,
        };
        t.record(Duration::from_micros(us), &report, subs, Ok(paths));
    }

    fn record(t: &mut Tally, us: u64) {
        record_with(t, us, 0);
    }

    #[test]
    fn windows_split_the_run_and_absorb_a_short_tail() {
        let mut t = Tally::default();
        for (count, us) in [(1000, 10), (1000, 20), (500, 40)] {
            for _ in 0..count {
                record(&mut t, us);
            }
            t.close_window();
        }
        let w = t.window_stats();
        assert_eq!(w.len(), 2, "the 500-publication tail joins window 2");
        assert_eq!((w[0].1, w[0].2), (10.0, 10.0));
        assert!((w[0].0 - 100_000.0).abs() < 1e-6);
        assert_eq!((w[1].1, w[1].2), (20.0, 40.0));
        assert!((w[1].0 - 1500.0 / 0.04).abs() < 1e-6);
    }

    #[test]
    fn path_totals_cover_the_digest_prefix_only() {
        let mut t = Tally::default();
        for _ in 0..DIGEST_PUBS + 50 {
            record_with(&mut t, 10, 3);
        }
        assert_eq!(t.publications, (DIGEST_PUBS + 50) as u64);
        assert_eq!(t.subscribers, 3 * DIGEST_PUBS as u64);
        assert_eq!(t.delivered, 3 * DIGEST_PUBS as u64);
        assert_eq!(t.paths.hops, 6 * DIGEST_PUBS);
    }
}
