//! In-memory spans recorded around the benchmark's own calls into the
//! system. Each thread keeps its own list; the lists are merged and written
//! out once the run ends, so recording costs two clock reads and a push.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for the root.
    pub parent: u64,
    pub name: &'static str,
    /// Event number the span belongs to (spans of one event share it); 0
    /// when the span is not about one event.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span list. Disabled recorders hand out id 0 and keep
/// nothing, so untraced runs pay only a branch.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    pub list: Vec<Span>,
}

impl Spans {
    /// `lane` keeps ids from different threads apart.
    pub fn new(enabled: bool, origin: Instant, lane: u64) -> Self {
        Spans {
            enabled,
            origin,
            next_id: (lane << 48) | 1,
            list: Vec::new(),
        }
    }

    pub fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves the id of a span that will be finished later, so that
    /// spans it causes can name it as their parent.
    pub fn begin(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span whose id came from [`Spans::begin`].
    pub fn finish(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        (start, end): (Instant, Instant),
    ) {
        if self.enabled {
            let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
            self.list.push(Span {
                id,
                parent,
                name,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.begin();
        self.finish(id, name, parent, req, (start, end));
        id
    }

    pub fn absorb(&mut self, other: Spans) {
        self.list.extend(other.list);
    }

    /// Writes every span as one JSON object per line, in start order.
    pub fn write_jsonl(&mut self, path: &Path) -> std::io::Result<()> {
        self.list.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.list {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
