//! In-memory span recorder for the traced replay.
//!
//! A span is (name, start, end, parent, request). The replay is one
//! linear sequence of layer calls per request, so consecutive child
//! spans share their boundary timestamp: one clock read ends a span and
//! starts the next, leaving no unattributed gap between them.

use std::io::Write;
use std::time::Instant;

/// The layer boundaries the replay records, named `layer.function`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    Request,
    ReqEncode,
    ClientTx,
    ServerRx,
    ReqDecode,
    Place,
    Ingest,
    KvGet,
    KvPut,
    ReplyEncode,
    ServerTx,
    ClientRx,
    ReplyDecode,
}

/// Every layer span (the root `request` span excluded), in request-path
/// order. `BENCHMARK.json` lists `<name>_p50_ns` and `<name>_ns_per_op`
/// for each.
pub const LAYER_SPANS: [SpanName; 12] = [
    SpanName::ReqEncode,
    SpanName::ClientTx,
    SpanName::ServerRx,
    SpanName::ReqDecode,
    SpanName::Place,
    SpanName::Ingest,
    SpanName::KvGet,
    SpanName::KvPut,
    SpanName::ReplyEncode,
    SpanName::ServerTx,
    SpanName::ClientRx,
    SpanName::ReplyDecode,
];

impl SpanName {
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Request => "request",
            SpanName::ReqEncode => "wire.req_encode",
            SpanName::ClientTx => "net.client_tx",
            SpanName::ServerRx => "net.server_rx",
            SpanName::ReqDecode => "wire.req_decode",
            SpanName::Place => "core.place",
            SpanName::Ingest => "core.ingest",
            SpanName::KvGet => "kv.get",
            SpanName::KvPut => "kv.put",
            SpanName::ReplyEncode => "wire.reply_encode",
            SpanName::ServerTx => "net.server_tx",
            SpanName::ClientRx => "net.client_rx",
            SpanName::ReplyDecode => "wire.reply_decode",
        }
    }
}

/// Index of a span in its recorder; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One request's position in the recorder: its root span and the child
/// currently open under it.
pub struct Lap {
    root: SpanId,
    current: SpanId,
}

/// Records spans in memory. Disabled, every call is a branch and
/// nothing else — no clock read — which is what the overhead run uses.
pub struct Recorder {
    enabled: bool,
    clock: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            clock: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens the root span of `request` and its first child, `first`,
    /// at the same instant.
    pub fn start(&mut self, request: u32, first: SpanName) -> Lap {
        if !self.enabled {
            return Lap {
                root: NO_PARENT,
                current: NO_PARENT,
            };
        }
        let t = self.now_ns();
        let open = |name, parent| Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            request,
        };
        let root = self.push(open(SpanName::Request, NO_PARENT));
        let current = self.push(open(first, root));
        Lap { root, current }
    }

    /// Ends the lap's open child and starts `name` at the same instant.
    pub fn next(&mut self, lap: &mut Lap, name: SpanName) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        self.spans[lap.current as usize].end_ns = t;
        let request = self.spans[lap.root as usize].request;
        lap.current = self.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: lap.root,
            request,
        });
    }

    /// Records `name` as a child of the lap's open span, covering the
    /// last `duration_ns` before now. Used where a callee's time is
    /// accumulated across many small calls (the ingest copies inside a
    /// reassembler push): the duration is exact, the position within
    /// the parent is not.
    pub fn child_ending_now(&mut self, lap: &Lap, name: SpanName, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let parent = self.spans[lap.current as usize];
        self.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns).max(parent.start_ns),
            end_ns,
            parent: lap.current,
            request: parent.request,
        });
    }

    /// Ends the lap's open child and the request's root span.
    pub fn finish(&mut self, lap: Lap) {
        if !self.enabled {
            return;
        }
        let t = self.now_ns();
        self.spans[lap.current as usize].end_ns = t;
        self.spans[lap.root as usize].end_ns = t;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per line: `header` first (the provenance
    /// block), then every span with its id, name, start, end, parent
    /// and request id.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover (children of one parent never overlap here).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(SpanName::Request, 0, 100, NO_PARENT),
            span(SpanName::ReqDecode, 0, 60, 0),
            span(SpanName::Ingest, 10, 50, 1),
            span(SpanName::KvPut, 60, 90, 0),
        ];
        // Root: 100 - (60 + 30); decode: 60 - 40; leaves keep it all.
        assert_eq!(self_times_ns(&spans), vec![10, 20, 40, 30]);
    }

    #[test]
    fn laps_share_boundaries_and_sum_to_the_root() {
        let mut rec = Recorder::new(true);
        let mut lap = rec.start(7, SpanName::ReqEncode);
        rec.next(&mut lap, SpanName::ClientTx);
        rec.child_ending_now(&lap, SpanName::Ingest, 0);
        rec.next(&mut lap, SpanName::KvGet);
        rec.finish(lap);
        let s = rec.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].name, SpanName::Request);
        assert!(s.iter().all(|x| x.request == 7));
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert_eq!(s[2].end_ns, s[4].start_ns);
        assert_eq!(s[4].end_ns, s[0].end_ns);
        assert_eq!(s[3].parent, 2);
        let children: u64 = [1, 2, 4].iter().map(|&i| s[i].duration_ns()).sum();
        assert_eq!(children, s[0].duration_ns());
        assert_eq!(self_times_ns(s)[0], 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let mut lap = rec.start(1, SpanName::ReqEncode);
        rec.next(&mut lap, SpanName::KvGet);
        rec.child_ending_now(&lap, SpanName::Ingest, 5);
        rec.finish(lap);
        assert!(rec.spans().is_empty());
    }
}
