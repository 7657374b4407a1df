//! The traced run's spans, kept in memory and written once at exit.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer: a span per request (parent = its transaction span,
//! whose parent is the round, whose parent is the run), a span per
//! `serve` and `recover` call and per probe. A transaction's spans share
//! the identifier `"<round>.<txn>"`. Spans *inside* the program are a
//! later issue.

use crate::client::{ReqKind, ReqSpan, TxnSpan};
use crate::metrics::Measured;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The spans of one traced round (nanoseconds since the run's epoch).
pub struct RoundSpans {
    pub set: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub serve: (u64, u64),
    pub recover: (u64, u64),
    pub probes: Vec<(&'static str, u64, u64)>,
    pub txns: Vec<TxnSpan>,
    pub requests: Vec<ReqSpan>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct SpanWriter<W: Write> {
    out: W,
    next_id: u64,
    first: bool,
}

impl<W: Write> SpanWriter<W> {
    /// Writes one span and returns its id. `extra` is raw JSON members.
    fn span(
        &mut self,
        parent: Option<u64>,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        extra: &str,
    ) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let sep = if self.first { "" } else { "," };
        self.first = false;
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            self.out,
            "{sep}\n{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3}{extra}}}",
            json_str(name),
            start_ns as f64 / 1e3,
            end_ns as f64 / 1e3,
        )?;
        Ok(id)
    }
}

/// Writes `{meta, counts, spans}` to `path` as one JSON document.
pub fn write(
    path: &Path,
    meta: &[(&str, String)],
    counts: &[Measured],
    run: (u64, u64),
    rounds: &[RoundSpans],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"meta\":{{")?;
    for (i, (k, v)) in meta.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}{}:{}", json_str(k), json_str(v))?;
    }
    write!(out, "}},\n\"counts\":{{")?;
    for (i, m) in counts.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\n{}:{}", json_str(m.def.name), m.value)?;
    }
    write!(out, "}},\n\"spans\":[")?;
    let mut w = SpanWriter {
        out,
        next_id: 1,
        first: true,
    };
    let run_id = w.span(None, "run", run, "")?;
    for (index, r) in rounds.iter().enumerate() {
        let extra = format!(",\"set\":{}", r.set);
        let round_id = w.span(Some(run_id), "round", (r.start_ns, r.end_ns), &extra)?;
        w.span(Some(round_id), "serve", r.serve, "")?;
        w.span(Some(round_id), "recover", r.recover, "")?;
        for &(name, start, end) in &r.probes {
            w.span(Some(round_id), name, (start, end), "")?;
        }
        let mut txn_ids: HashMap<u32, u64> = HashMap::with_capacity(r.txns.len());
        for t in &r.txns {
            let extra = format!(
                ",\"txn\":\"{index}.{}\",\"attempts\":{}",
                t.txn.0, t.attempts
            );
            let id = w.span(Some(round_id), "txn", (t.start_ns, t.end_ns), &extra)?;
            txn_ids.insert(t.txn.0, id);
        }
        for q in &r.requests {
            let name = match q.kind {
                ReqKind::Begin => "Begin",
                ReqKind::Read => "Read",
                ReqKind::Write => "Write",
                ReqKind::Commit => "Commit",
            };
            let extra = format!(
                ",\"txn\":\"{index}.{}\",\"outcome\":\"{:?}\"",
                q.txn.0, q.outcome
            );
            // A lost transaction has requests but no transaction span.
            let parent = txn_ids.get(&q.txn.0).copied().unwrap_or(round_id);
            w.span(Some(parent), name, (q.start_ns, q.end_ns), &extra)?;
        }
    }
    let mut out = w.out;
    write!(out, "\n]}}\n")?;
    out.flush()
}
