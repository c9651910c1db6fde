//! Host-side instruments: benchmark-side spans around calls into each
//! layer, self time, the Chrome export, peak RSS, and the digest check
//! that keeps deterministic metrics bit-identical across runs.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cxl_telemetry::SpanRecord;
use simclock::{SimDuration, SimTime};

use crate::Options;

/// One finished benchmark-side span, in host nanoseconds since the
/// recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpan {
    /// Span name: the layer call it wraps (`core.checkpoint`).
    pub name: &'static str,
    /// Start, host ns.
    pub start_ns: u64,
    /// End, host ns.
    pub end_ns: u64,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Host ns covered by direct children.
    pub child_ns: u64,
}

impl HostSpan {
    /// Host duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Host ns not covered by a direct child.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Records nested host-time spans around layer calls. Every span is
/// kept: callers read per-call durations from it afterwards.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// `(name, start_ns, child_ns)` of each open span, innermost last.
    open: Vec<(&'static str, u64, u64)>,
    spans: Vec<HostSpan>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Host ns since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.now_ns();
        self.open.push((name, start, 0));
        let r = f(self);
        let end = self.now_ns();
        let (name, start, child_ns) = self.open.pop().expect("span stack balanced");
        self.close(name, start, end, child_ns);
        r
    }

    /// Adds a finished child span of the innermost open span (or a
    /// top-level span) measured elsewhere, e.g. by [`TimedLink`].
    pub fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.close(name, start_ns, end_ns, 0);
    }

    fn close(&mut self, name: &'static str, start_ns: u64, end_ns: u64, child_ns: u64) {
        let depth = self.open.len() as u32;
        if let Some(parent) = self.open.last_mut() {
            parent.2 += end_ns - start_ns;
        }
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns,
            depth,
            child_ns,
        });
    }

    /// Host durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total host ns of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(HostSpan::dur_ns)
            .sum()
    }

    /// Total self time (s) of every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(HostSpan::self_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The spans as telemetry records for `cxl_telemetry::chrome_trace`.
    /// Timestamps are host time, not virtual time.
    pub fn to_records(&self) -> Vec<SpanRecord> {
        self.spans
            .iter()
            .map(|s| SpanRecord {
                name: format!("host.{}", s.name),
                track: 0,
                start: SimTime::from_nanos(s.start_ns),
                end: SimTime::from_nanos(s.end_ns),
                depth: s.depth,
                attrs: vec![("self_ns".to_owned(), s.self_ns())],
            })
            .collect()
    }
}

/// A [`cxl_mem::FabricLink`] that forwards to the real topology and
/// records the host interval of each `charge_transfer` call, so the
/// fabric's share of a checkpoint or restore shows as a child span.
#[derive(Debug)]
pub struct TimedLink {
    inner: Arc<dyn cxl_mem::FabricLink>,
    origin: Instant,
    calls: Mutex<Vec<(u64, u64)>>,
}

impl TimedLink {
    /// Wraps `inner`, timing against `recorder`'s clock.
    pub fn new(inner: Arc<dyn cxl_mem::FabricLink>, recorder: &Recorder) -> Self {
        TimedLink {
            inner,
            origin: recorder.origin,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Moves the intervals recorded so far into `recorder` as children
    /// of its innermost open span.
    pub fn drain_into(&self, recorder: &mut Recorder) {
        let calls = std::mem::take(&mut *self.calls.lock().expect("link timer lock"));
        for (start, end) in calls {
            recorder.child("cxl_fabric.charge", start, end);
        }
    }
}

impl cxl_mem::FabricLink for TimedLink {
    fn charge_transfer(&self, device: u32, now: SimTime, port_bytes: &[u64]) -> SimDuration {
        let start = self.origin.elapsed().as_nanos() as u64;
        let delay = self.inner.charge_transfer(device, now, port_bytes);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("link timer lock")
            .push((start, end));
        delay
    }
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Writes `text` to `name` under [`crate::OUT_DIR`], returning the path.
///
/// # Errors
///
/// The I/O error, rendered.
pub fn write_out(name: &str, text: &str) -> Result<String, String> {
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{}: {e}", crate::OUT_DIR))?;
    let path = format!("{}/{name}", crate::OUT_DIR);
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Identifies the running executable (its length and modification
/// time), so a digest recorded by another build is never compared.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_default()
}

/// Compares `digest` (of every deterministic metric) with the one the
/// first run of this build at the same settings recorded, and records it
/// if there was none.
///
/// # Errors
///
/// A message naming both digests when they differ.
pub fn check_digest(options: &Options, digest: u64) -> Result<(), String> {
    let name = format!(
        "digest-{}-seed{}-{}s-{:?}-trace{}.txt",
        options.workload.name(),
        options.seed,
        options.seconds,
        options.size,
        u8::from(options.trace)
    );
    let line = format!("{} {digest:016x}", build_id());
    let path = format!("{}/{name}", crate::OUT_DIR);
    if let Ok(previous) = std::fs::read_to_string(&path) {
        let previous = previous.trim();
        if previous.split(' ').next() == line.split(' ').next() && previous != line {
            return Err(format!(
                "deterministic metrics differ from an earlier run at this seed: {previous} vs {line}"
            ));
        }
    }
    write_out(&name, &line).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new();
        r.span("outer", |r| {
            r.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = r.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = r.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.child_ns, inner.dur_ns());
        assert!(outer.self_ns() < inner.dur_ns());
    }
}
