//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, its start and end (nanoseconds since the run's
//! epoch), its own id and the id of the span that was open when it began,
//! so a layer's self time is its duration minus its children's. Spans are
//! recorded on the calling thread only while tracing is switched on and
//! are written out as JSON lines when the run ends; nothing is recorded
//! inside the program under test.

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// Upper bound on spans kept per run, so a long traced run cannot grow
/// without limit. Later spans are counted but dropped.
const MAX_SPANS: usize = 200_000;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    next_id: u64,
    open: Vec<u64>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        dropped: 0,
        next_id: 1,
        open: Vec::new(),
    });
}

/// Switches recording on or off for the current thread.
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

/// Runs `body` inside a span named `name` (a no-op wrapper while
/// recording is off).
pub fn span<T>(name: &'static str, body: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let id = r.next_id;
        r.next_id += 1;
        let parent = r.open.last().copied().unwrap_or(0);
        r.open.push(id);
        Some((id, parent, r.epoch.elapsed().as_nanos() as u64))
    });
    let out = body();
    if let Some((id, parent, start_ns)) = opened {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.open.pop();
            let end_ns = r.epoch.elapsed().as_nanos() as u64;
            if r.spans.len() < MAX_SPANS {
                r.spans.push(Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
            } else {
                r.dropped += 1;
            }
        });
    }
    out
}

/// Writes every recorded span as one JSON object per line and returns
/// how many were written and how many were dropped over the cap.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<(usize, u64)> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let (written, dropped) = RECORDER.with(|r| -> std::io::Result<(usize, u64)> {
        let r = r.borrow();
        for s in &r.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok((r.spans.len(), r.dropped))
    })?;
    out.flush()?;
    Ok((written, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_enabled() {
        span("ignored", || ());
        set_enabled(true);
        let value = span("outer", || span("inner", || 41) + 1);
        set_enabled(false);
        assert_eq!(value, 42);
        RECORDER.with(|r| {
            let r = r.borrow();
            assert_eq!(r.spans.len(), 2, "only the enabled spans");
            let inner = &r.spans[0];
            let outer = &r.spans[1];
            assert_eq!((inner.name, outer.name), ("inner", "outer"));
            assert_eq!(inner.parent, outer.id);
            assert_eq!(outer.parent, 0);
            assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        });
    }
}
