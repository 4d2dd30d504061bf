//! The traced run's span sink: per span name, how often it closed, its total wall time and
//! its self time.
//!
//! A span's self time is its duration minus the time its direct child spans cover. The
//! program reports closed spans in post-order with their nesting depth (see `qo_obsv`), so a
//! child always closes before its parent: the sink keeps, per depth, the summed durations of
//! the spans that closed there since the enclosing span opened, and hands that sum to the
//! parent when it closes. Self times of all spans under a root therefore add up to exactly
//! the root's duration.

use qo_obsv::ObsvSink;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregate of every closed span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans closed.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (wall time minus direct children), nanoseconds.
    pub self_ns: u64,
}

#[derive(Default)]
struct State {
    /// `children[d]`: summed durations of spans closed at depth `d` whose parent is still open.
    children: Vec<u64>,
    spans: BTreeMap<&'static str, SpanStat>,
}

/// An [`ObsvSink`] aggregating spans by name; events are ignored.
#[derive(Default)]
pub struct SelfTimeSink {
    state: Mutex<State>,
}

impl SelfTimeSink {
    /// Returns the aggregates since the last call and starts afresh.
    pub fn take(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut state = self.state.lock().expect("trace sink poisoned");
        state.children.iter_mut().for_each(|c| *c = 0);
        std::mem::take(&mut state.spans)
    }
}

impl ObsvSink for SelfTimeSink {
    fn span_close(&self, name: &'static str, depth: u32, nanos: u64) {
        let mut state = self.state.lock().expect("trace sink poisoned");
        let d = depth as usize;
        if state.children.len() < d + 2 {
            state.children.resize(d + 2, 0);
        }
        let covered = std::mem::take(&mut state.children[d + 1]);
        state.children[d] += nanos;
        let stat = state.spans.entry(name).or_default();
        stat.count += 1;
        stat.total_ns += nanos;
        stat.self_ns += nanos.saturating_sub(covered);
    }

    fn event(&self, _name: &'static str, _value: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use qo_obsv::Span;
    use std::sync::Arc;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let sink = SelfTimeSink::default();
        // root(100) { a(30) { b(10) }, c(20) } closes in post-order: b, a, c, root.
        sink.span_close("b", 2, 10);
        sink.span_close("a", 1, 30);
        sink.span_close("c", 1, 20);
        sink.span_close("root", 0, 100);
        let spans = sink.take();
        assert_eq!(spans["b"].self_ns, 10);
        assert_eq!(spans["a"].self_ns, 20);
        assert_eq!(spans["c"].self_ns, 20);
        assert_eq!(spans["root"].self_ns, 50);
        assert_eq!(spans["root"].total_ns, 100);
        let selves: u64 = spans.values().map(|s| s.self_ns).sum();
        assert_eq!(selves, 100, "self times partition the root");
        assert!(sink.take().is_empty(), "take starts afresh");
    }

    #[test]
    fn repeated_names_and_sibling_roots_aggregate() {
        let sink = SelfTimeSink::default();
        for _ in 0..2 {
            sink.span_close("leaf", 1, 5);
            sink.span_close("leaf", 1, 7);
            sink.span_close("root", 0, 20);
        }
        let spans = sink.take();
        assert_eq!(spans["leaf"].count, 4);
        assert_eq!(spans["leaf"].self_ns, 24);
        assert_eq!(spans["root"].count, 2);
        assert_eq!(spans["root"].self_ns, 16);
    }

    #[test]
    fn real_nested_spans_add_up_to_the_root() {
        let sink = Arc::new(SelfTimeSink::default());
        qo_obsv::with_sink(sink.clone(), || {
            let _root = Span::enter("root");
            for _ in 0..3 {
                let _child = Span::enter("child");
                let _grandchild = Span::enter("grandchild");
                std::hint::black_box((0..1000).sum::<u64>());
            }
        });
        let spans = sink.take();
        let selves: u64 = spans.values().map(|s| s.self_ns).sum();
        assert_eq!(selves, spans["root"].total_ns);
        assert_eq!(spans["child"].count, 3);
        assert!(spans["grandchild"].self_ns <= spans["child"].total_ns);
    }
}
