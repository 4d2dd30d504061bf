//! What every workload shares: arguments, failure containment, the operation log, repeated
//! set-up, the timed and the paired traced phase, and the metric assembly.

use crate::report::Report;
use crate::stats::{mean, median, percentile_sorted, samples_beyond};
use crate::trace::{SelfTimeSink, SpanStat};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measurement length of one run.
    pub seconds: f64,
    /// `false`: untraced run reporting the end-to-end metrics; `true`: traced run reporting
    /// the per-layer metrics.
    pub trace: bool,
}

/// Timed set-ups per untraced run of the serve workloads, after one untimed warm-up set-up;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Wall-clock cap on one timed phase, whatever its minimum operation count asks for, so a
/// run on a slow machine still ends well inside its time limit.
pub const PHASE_CAP: Duration = Duration::from_secs(70);

/// Runs `f`, turning a panic into an error message: a failing operation is counted, never
/// fatal.
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Runs the set-up once untimed, then `repeats` times timed, and keeps the last result,
/// returning it with the timed set-ups' wall times in seconds. The first set-up runs with cold
/// pages, caches and allocator, a different quantity from the later ones, so it only warms up.
/// Each set-up's predecessor is dropped before it starts, so only one is ever live.
pub fn repeated_setup<S>(repeats: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut last = setup();
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        drop(last);
        let t = Instant::now();
        last = setup();
        times.push(t.elapsed().as_secs_f64());
    }
    (last, times)
}

/// Per-operation outcomes of one timed phase.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Latency of every completed operation, nanoseconds.
    pub latencies_ns: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the whole phase.
    pub elapsed: Duration,
}

impl OpLog {
    /// A log with room for `capacity` operations, its memory written once up front (with a
    /// non-zero value, so it cannot stay unbacked zero pages): the buffer's memory is then
    /// resident however many operations a run completes, and [`end_to_end`] takes it out of
    /// `peak_rss_mb`.
    pub fn with_capacity(capacity: usize) -> OpLog {
        let mut latencies_ns = Vec::with_capacity(capacity);
        latencies_ns.resize(capacity, -1.0);
        latencies_ns.clear();
        OpLog {
            latencies_ns,
            ..OpLog::default()
        }
    }

    fn full(&self) -> bool {
        self.latencies_ns.len() == self.latencies_ns.capacity()
    }

    /// Records one attempted operation that took `ns` and passed (`ok`) or failed.
    pub fn record(&mut self, ns: f64, ok: bool) {
        self.attempted += 1;
        self.latencies_ns.push(ns);
        if !ok {
            self.failed += 1;
        }
    }

    /// Ends the phase: records its wall time and sorts the latencies in place, with an
    /// unstable sort that needs no scratch buffer, so percentiles take no copy of a buffer
    /// that can hold millions of samples and `peak_rss_mb` does not grow with the run.
    fn finish(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
        self.latencies_ns.sort_unstable_by(f64::total_cmp);
    }

    pub fn p50_ns(&self) -> f64 {
        percentile_sorted(&self.latencies_ns, 0.5)
    }

    pub fn p99_ns(&self) -> f64 {
        percentile_sorted(&self.latencies_ns, 0.99)
    }
}

/// Work an operation does besides the measured call (reference optimizations interleaved
/// with the loop, so their timings average over the same conditions as the loop's). Its time
/// is excluded from the phase's elapsed time and so from `ops_per_s`.
#[derive(Debug, Default)]
pub struct Side {
    excluded: Duration,
}

impl Side {
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }
}

/// How long a timed phase runs.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Measured time (side work excluded).
    pub seconds: f64,
    /// Operations every run performs, however long they take (up to [`PHASE_CAP`]).
    pub min_ops: usize,
    /// The phase ends only after a multiple of this many operations.
    pub granule: usize,
    /// The phase ends after this many operations, however short they were.
    pub max_ops: usize,
}

/// Drives `op(i)` for `i = 0, 1, …` within `limits` (or until [`PHASE_CAP`]). `op` returns
/// the latency it measured (ns) and whether the operation passed its checks; a panic counts
/// as a failure with the time until the panic. A phase cut off before `min_ops` operations
/// counts one more failed operation, since the counts taken at `min_ops` are then missing.
pub fn timed_phase(limits: Limits, mut op: impl FnMut(usize, &mut Side) -> (f64, bool)) -> OpLog {
    let Limits {
        seconds,
        min_ops,
        granule,
        max_ops,
    } = limits;
    let mut log = OpLog::with_capacity(max_ops);
    let mut side = Side::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        let elapsed = start.elapsed();
        let measured = elapsed.saturating_sub(side.excluded);
        let done = measured >= budget && i >= min_ops && i % granule.max(1) == 0;
        if done || log.full() || elapsed >= PHASE_CAP {
            break;
        }
        let t = Instant::now();
        match contain(|| op(i, &mut side)) {
            Ok((ns, ok)) => log.record(ns, ok),
            Err(message) => {
                eprintln!("operation {i} panicked: {message}");
                log.record(t.elapsed().as_nanos() as f64, false);
            }
        }
        i += 1;
    }
    if i < min_ops {
        eprintln!("phase cut off after {i} of its {min_ops} operations");
        log.attempted += 1;
        log.failed += 1;
    }
    log.finish(start.elapsed().saturating_sub(side.excluded));
    log
}

/// The layers span names are charged to. Program spans (see `qo_obsv` call sites) and the
/// benchmark's own `bench.*` spans map onto the crate that does the work; `root` is the
/// benchmark's per-operation span, whose self time no layer covers.
pub const LAYERS: [&str; 9] = [
    "ingest", "canon", "service", "recost", "adaptive", "algebra", "exec", "root", "other",
];

pub fn layer_of(span: &str) -> usize {
    let layer = match span {
        "parse" | "lower" => "ingest",
        "canonicalize" => "canon",
        "serve"
        | "feedback"
        | "bench.plan_jg"
        | "bench.plan_observed"
        | "bench.observe_execution" => "service",
        "recost" => "recost",
        "enumerate" | "idp" | "greedy" | "seed_bound" | "structure" | "cost_pass"
        | "bench.optimize" => "adaptive",
        "bench.derive" => "algebra",
        "bench.execute" => "exec",
        "bench.op" => "root",
        _ => "other",
    };
    LAYERS
        .iter()
        .position(|&l| l == layer)
        .expect("listed layer")
}

/// Span aggregates of a traced phase: totals per span name and, per operation, the self time
/// charged to each layer.
#[derive(Debug, Default)]
pub struct TraceAgg {
    pub spans: BTreeMap<&'static str, SpanStat>,
    pub per_op: Vec<[u64; LAYERS.len()]>,
}

impl TraceAgg {
    /// Mean wall time of the spans named `name`, nanoseconds (`0` if none closed).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some(s) if s.count > 0 => s.total_ns as f64 / s.count as f64,
            _ => 0.0,
        }
    }

    /// Median over operations of the self time charged to `layer`, nanoseconds.
    pub fn layer_median_ns(&self, layer: &str) -> f64 {
        let l = LAYERS
            .iter()
            .position(|&x| x == layer)
            .expect("known layer");
        let v: Vec<f64> = self.per_op.iter().map(|op| op[l] as f64).collect();
        median(&v)
    }
}

/// Runs every operation twice, back to back: `untraced(i)` as in [`timed_phase`], and
/// `traced(i)` with a [`SelfTimeSink`] installed and inside a `bench.op` root span. Pairing
/// the two op by op makes drifts in machine speed hit both alike, so their difference is the
/// tracing overhead. The traced half is side work of the untraced phase, so `limits.seconds`
/// is the untraced half's time. Returns both logs and the span aggregates.
pub fn paired_phase(
    limits: Limits,
    mut untraced: impl FnMut(usize, &mut Side) -> (f64, bool),
    mut traced: impl FnMut(usize) -> (f64, bool),
) -> (OpLog, OpLog, TraceAgg) {
    let sink = Arc::new(SelfTimeSink::default());
    let mut agg = TraceAgg::default();
    let mut traced_log = OpLog::with_capacity(limits.max_ops);
    let untraced_log = timed_phase(limits, |i, side| {
        // Whichever of the pair runs second finds the input warm in the caches, so the
        // order alternates.
        let untraced_first = i % 2 == 0;
        let outcome = untraced_first.then(|| untraced(i, side));
        side.run(|| {
            let _guard = qo_obsv::install_sink(sink.clone());
            let t = Instant::now();
            match contain(|| {
                let _root = qo_obsv::Span::enter("bench.op");
                traced(i)
            }) {
                Ok((ns, ok)) => traced_log.record(ns, ok),
                Err(message) => {
                    eprintln!("traced operation {i} panicked: {message}");
                    traced_log.record(t.elapsed().as_nanos() as f64, false);
                }
            }
            let mut layers = [0u64; LAYERS.len()];
            for (name, stat) in sink.take() {
                layers[layer_of(name)] += stat.self_ns;
                let total = agg.spans.entry(name).or_default();
                total.count += stat.count;
                total.total_ns += stat.total_ns;
                total.self_ns += stat.self_ns;
            }
            agg.per_op.push(layers);
        });
        outcome.unwrap_or_else(|| untraced(i, side))
    });
    traced_log.finish(Duration::ZERO);
    (untraced_log, traced_log, agg)
}

/// Peak resident memory of this process in MiB (`VmHWM`), `0` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the end-to-end metrics shared by every workload.
pub fn end_to_end(
    report: &mut Report,
    setup_times: &[f64],
    log: &OpLog,
    ns_per_pair: f64,
    cost_ratio: f64,
) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    report.set("setup_s", median(setup_times));
    report.set(
        "ops_per_s",
        log.latencies_ns.len() as f64 / log.elapsed.as_secs_f64().max(1e-9),
    );
    report.set("latency_p50_us", log.p50_ns() / 1e3);
    report.set("latency_p99_us", log.p99_ns() / 1e3);
    report.set("ns_per_pair", ns_per_pair);
    report.set("cost_ratio", cost_ratio);
    let buffer_mb = (log.latencies_ns.capacity() * std::mem::size_of::<f64>()) as f64 / 1048576.0;
    report.set("peak_rss_mb", peak_rss_mb() - buffer_mb);
}

/// Fills the per-layer metrics every traced run shares: error rate, sample counts, tracing
/// overhead (traced minus untraced on the same operations) and layer coverage (the layers'
/// median self times summed, over the untraced median latency).
pub fn trace_common(report: &mut Report, untraced: &OpLog, traced: &OpLog, agg: &TraceAgg) {
    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    report.set(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("latency_samples", untraced.latencies_ns.len() as f64);
    report.set(
        "latency_tail_samples",
        samples_beyond(untraced.latencies_ns.len(), 0.99) as f64,
    );
    let (u50, t50) = (untraced.p50_ns(), traced.p50_ns());
    report.set("trace.overhead_p50_pct", (t50 - u50) / u50.max(1.0) * 100.0);
    report.set(
        "trace.overhead_mean_ns",
        mean(&traced.latencies_ns) - mean(&untraced.latencies_ns),
    );
    let covered: f64 = LAYERS
        .iter()
        .filter(|&&l| l != "root")
        .map(|l| agg.layer_median_ns(l))
        .sum();
    report.set("trace.layer_cover", covered / u50.max(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn set_up_times_only_the_warm_repeats_with_one_set_up_live() {
        struct Live<'a>(&'a Cell<usize>);
        impl Drop for Live<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let (live, most, built) = (Cell::new(0), Cell::new(0), Cell::new(0));
        let (kept, times) = repeated_setup(3, || {
            live.set(live.get() + 1);
            most.set(most.get().max(live.get()));
            built.set(built.get() + 1);
            Live(&live)
        });
        assert_eq!(
            (built.get(), times.len(), most.get(), live.get()),
            (4, 3, 1, 1)
        );
        drop(kept);
    }

    #[test]
    fn a_phase_cut_off_before_its_minimum_counts_a_failure() {
        let limits = Limits {
            seconds: 0.0,
            min_ops: 10,
            granule: 1,
            max_ops: 4,
        };
        let log = timed_phase(limits, |i, _| {
            assert!(i != 2, "operation 2 fails");
            (1.0, true)
        });
        // Four operations ran (one panicked); the missing six count as one more failure.
        assert_eq!(
            (log.attempted, log.failed, log.latencies_ns.len()),
            (5, 2, 4)
        );
    }
}
