//! Replay accounting. After the timed phase of a traced run, every
//! 16th recorded op is pushed again through the same public calls the
//! system makes for it, one timed stage per call. The stage times are
//! then *folded* into the op's live span: laid out back to back from
//! the start of the interval they explain (`client.wire`, or `lib.op`),
//! as its children. What the children do not cover is the op's
//! unaccounted time — wire, thread hand-offs, queueing, pool overhead.

use crate::spans::{SpanId, Spans};
use crate::stats;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// One live op kept for replay.
#[derive(Debug, Clone, Copy)]
pub struct Sampled {
    /// The op id its spans share.
    pub op: u64,
    /// The span the replayed stages explain (`client.wire` / `lib.op`).
    pub explains: SpanId,
}

/// Stage times of one replayed op, in call order.
#[derive(Debug, Default)]
pub struct Folded {
    stages: Vec<(&'static str, u64)>,
}

impl Folded {
    /// Times `f` as stage `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `ns` of stage `name`, measured by the caller (for stages
    /// that recur inside an op — per shot — and are summed first).
    pub fn add(&mut self, name: &'static str, ns: u64) {
        self.stages.push((name, ns));
    }

    /// Writes the stages as children of `sampled.explains`, back to
    /// back from its start.
    pub fn emit(self, spans: &mut Spans, sampled: Sampled) {
        let mut at = spans.all()[sampled.explains].start_ns;
        for (name, ns) in self.stages {
            spans.push(name, at, at + ns, Some(sampled.explains), sampled.op);
            at += ns;
        }
    }
}

/// `(accounted share, unaccounted µs)` of the typical replayed op: the
/// medians over the replayed ops, so an op that ran live while the
/// host was disturbed (and replays faster than it ran) does not decide
/// them. An op's unaccounted time is the self time of its root span
/// plus the self time of the span its replay explains.
pub fn account(spans: &Spans, replayed: &[Sampled]) -> Option<(f64, f64)> {
    if replayed.is_empty() {
        return None;
    }
    let explains: HashSet<SpanId> = replayed.iter().map(|s| s.explains).collect();
    let own = spans.self_times_ns();
    // op → (live ns, unaccounted ns)
    let mut per_op: HashMap<u64, (u64, u64)> = replayed.iter().map(|s| (s.op, (0, 0))).collect();
    for (id, span) in spans.all().iter().enumerate() {
        let Some((live, unaccounted)) = per_op.get_mut(&span.op) else {
            continue;
        };
        if span.parent.is_none() {
            *live += span.duration_ns();
        }
        if span.parent.is_none() || explains.contains(&id) {
            *unaccounted += own[id];
        }
    }
    let shares: Vec<f64> = per_op
        .values()
        .map(|&(live, unaccounted)| 1.0 - unaccounted as f64 / live as f64)
        .collect();
    let unaccounted_us: Vec<f64> = per_op.values().map(|&(_, u)| u as f64 / 1e3).collect();
    Some((stats::median(&shares), stats::median(&unaccounted_us)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_stages_fill_the_explained_span_and_the_rest_is_unaccounted() {
        let mut spans = Spans::default();
        // op 1: 100 ns, of which encode 10, wire 70, decode 10 → the
        // root itself keeps 10 of self time.
        let root = spans.push("client.op", 0, 100, None, 1);
        spans.push("client.encode", 0, 10, Some(root), 1);
        let wire = spans.push("client.wire", 10, 80, Some(root), 1);
        spans.push("client.decode", 80, 90, Some(root), 1);
        // op 2 is not replayed and must not count.
        spans.push("client.op", 200, 900, None, 2);
        let sampled = Sampled {
            op: 1,
            explains: wire,
        };
        let mut folded = Folded::default();
        folded.add("service.admission", 30);
        folded.add("service.scheduler.run_range", 20);
        folded.emit(&mut spans, sampled);
        // Wire: 70 − 50 replayed = 20 unaccounted, plus the root's 10.
        let (share, unaccounted_us) = account(&spans, &[sampled]).unwrap();
        assert!((share - 0.70).abs() < 1e-12, "{share}");
        assert!((unaccounted_us - 0.030).abs() < 1e-12, "{unaccounted_us}");

        // Two more replayed ops, one of them stretched tenfold by a
        // disturbed host: the medians stay with the typical op.
        let mut all = vec![sampled];
        for (op, stretch) in [(3u64, 1u64), (4, 10)] {
            let at = op * 10_000;
            let root = spans.push("client.op", at, at + 100 * stretch, None, op);
            let wire = spans.push("client.wire", at, at + 100 * stretch, Some(root), op);
            let kept = Sampled { op, explains: wire };
            let mut folded = Folded::default();
            folded.add("service.scheduler.run_range", 70);
            folded.emit(&mut spans, kept);
            all.push(kept);
        }
        let (share, unaccounted_us) = account(&spans, &all).unwrap();
        assert!((share - 0.70).abs() < 1e-12, "{share}");
        assert!((unaccounted_us - 0.030).abs() < 1e-12, "{unaccounted_us}");
        // The folded children sit inside the wire span, back to back.
        let kids: Vec<_> = spans
            .all()
            .iter()
            .filter(|s| s.parent == Some(wire))
            .collect();
        assert_eq!((kids[0].start_ns, kids[0].end_ns), (10, 40));
        assert_eq!((kids[1].start_ns, kids[1].end_ns), (40, 60));
    }

    #[test]
    fn a_replay_slower_than_live_cannot_account_for_more_than_the_span() {
        let mut spans = Spans::default();
        let root = spans.push("lib.op", 0, 100, None, 1);
        let sampled = Sampled {
            op: 1,
            explains: root,
        };
        let mut folded = Folded::default();
        folded.add("qsim.kernels", 150);
        folded.emit(&mut spans, sampled);
        let (share, unaccounted_us) = account(&spans, &[sampled]).unwrap();
        assert_eq!(share, 1.0);
        assert_eq!(unaccounted_us, 0.0);
        assert!(account(&spans, &[]).is_none());
    }
}
