//! The benchmark's own span recorder. Spans live in memory for the
//! whole run and are written as `<workload>.trace.json` at exit; the
//! program under test is never instrumented from here.

use std::time::Instant;

/// Index of a span inside its [`Spans`] recorder.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`client.wire`, `service.admission`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<SpanId>,
    /// The op every span of one request shares.
    pub op: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with one shared time base.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Every span, in recording order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover. Children may overlap
    /// each other and may stick out of the parent; the covered part is
    /// the union of the child intervals clipped to the parent.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (lo, hi) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if lo < hi {
                    children[parent].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (lo, hi) in kids {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Total self time per span name, name-sorted.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            let row = rows.entry(span.name).or_default();
            row.0 += own;
            row.1 += 1;
        }
        rows.into_iter().map(|(n, (t, c))| (n, t, c)).collect()
    }

    /// The trace file: a name table plus one compact row per span,
    /// `[name index, start_ns, end_ns, parent id or -1, op]`. A row's
    /// position in `spans` is its id.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\
             \"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\"names\":["
        ));
        for (i, name) in names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\""));
        }
        out.push_str("],\"self_time_ns\":{");
        for (i, (name, total, count)) in self.self_time_by_name().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"total\":{total},\"spans\":{count}}}"
            ));
        }
        out.push_str("},\"spans\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let name = names
                .binary_search(&span.name)
                .expect("name is in the table");
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "[{name},{},{},{parent},{}]",
                span.start_ns, span.end_ns, span.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut spans = Spans::default();
        let root = spans.push("op", 0, 100, None, 1);
        // Two children overlapping on [30, 40), one sticking out past
        // the parent's end, one nested grandchild.
        let a = spans.push("a", 10, 40, Some(root), 1);
        spans.push("b", 30, 60, Some(root), 1);
        spans.push("c", 90, 130, Some(root), 1);
        spans.push("a.inner", 15, 25, Some(a), 1);
        let own = spans.self_times_ns();
        // Covered: [10, 60) ∪ [90, 100) = 60 → self 40.
        assert_eq!(own[root], 40);
        // `a` is 30 long with a 10-long child.
        assert_eq!(own[a], 20);
        // Leaves keep their full duration (the overhang included: the
        // clip applies to the parent's accounting, not the child's).
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn self_time_by_name_sums_and_counts() {
        let mut spans = Spans::default();
        for op in 0..3u64 {
            let root = spans.push("op", op * 100, op * 100 + 50, None, op);
            spans.push("wire", op * 100 + 10, op * 100 + 30, Some(root), op);
        }
        assert_eq!(
            spans.self_time_by_name(),
            vec![("op", 90, 3), ("wire", 60, 3)]
        );
    }

    #[test]
    fn trace_json_parses_and_indexes_names() {
        let mut spans = Spans::default();
        let root = spans.push("client.op", 5, 50, None, 7);
        spans.push("client.wire", 10, 40, Some(root), 7);
        let doc = jsonlite::Json::parse(&spans.to_json("serve-warm", 3)).expect("valid JSON");
        let names = doc.get("names").and_then(jsonlite::Json::as_arr).unwrap();
        assert_eq!(names.len(), 2);
        let rows = doc.get("spans").and_then(jsonlite::Json::as_arr).unwrap();
        let wire = rows[1].as_arr().unwrap();
        assert_eq!(
            names[wire[0].as_u64().unwrap() as usize].as_str(),
            Some("client.wire")
        );
        assert_eq!(wire[3].as_f64(), Some(0.0), "parent is the root's id");
        assert_eq!(rows[0].as_arr().unwrap()[3].as_f64(), Some(-1.0));
    }
}
