//! Order statistics, the in-memory span log, and host facts.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// The median of `samples` (sorts in place; `0.0` when empty).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q`-quantile of `samples` by linear interpolation between closest
/// ranks (sorts in place; `0.0` when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(samples.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    samples[lo] + (samples[hi] - samples[lo]) * frac
}

/// The process's peak resident set (`VmHWM`), MiB; `None` where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer: name, start and end (ns since the log's
/// epoch), the index of the span that caused it, and the device or kill
/// point it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer call, e.g. `compile`.
    pub name: &'static str,
    /// Start, ns since [`SpanLog::new`].
    pub start: u64,
    /// End, ns since [`SpanLog::new`].
    pub end: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// The device index (or kill-point index) the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration, ns.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans held in memory while a traced run executes and written out
/// when it ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span (its end is set by [`SpanLog::close`]) and returns
    /// its index.
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        let start = self.now();
        self.push(name, start, start, parent, id)
    }

    /// Closes span `index` now.
    pub fn close(&mut self, index: u32) {
        let end = self.now();
        self.spans[index as usize].end = end;
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, id: u64) -> u32 {
        let index = u32::try_from(self.spans.len()).expect("fewer than 4G spans per run");
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
        index
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, id);
        out
    }

    /// Forgets every span (keeps the allocation).
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        #[allow(clippy::cast_precision_loss)]
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Summed self time (ns) of every span named `name`: its duration
    /// minus what its direct children cover.
    #[must_use]
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Writes the log as tab-separated `index name start_ns end_ns
    /// parent id` lines (parent `-` for roots).
    ///
    /// # Errors
    ///
    /// Returns the I/O failure.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48 + 64);
        out.push_str("index\tname\tstart_ns\tend_ns\tparent\tid\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{i}\t{}\t{}\t{}\t", s.name, s.start, s.end);
            if s.parent == NO_PARENT {
                out.push('-');
            } else {
                let _ = write!(out, "{}", s.parent);
            }
            let _ = writeln!(out, "\t{}", s.id);
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert!((median(&mut v) - 2.5).abs() < 1e-12);
        assert!((quantile(&mut v, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&mut v, 1.0) - 4.0).abs() < 1e-12);
        assert!(median(&mut []).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new();
        let root = log.push("device", 0, 100, NO_PARENT, 7);
        log.push("compile", 10, 40, root, 7);
        log.push("run", 40, 90, root, 7);
        assert_eq!(log.self_ns("device"), 20);
        assert_eq!(log.self_ns("compile"), 30);
        assert_eq!(log.total_ns("run"), 50);
        assert_eq!(log.durations("compile"), vec![30.0]);
    }
}
