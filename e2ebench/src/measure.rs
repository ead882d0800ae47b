//! Measurement helpers: order statistics, the host record, process and
//! host counters read from `/proc` and `/sys`, and the span recorder of
//! traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set in MB (10^6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Heap bytes live now, and their peak since [`heap_mark`].
static HEAP_LIVE: AtomicUsize = AtomicUsize::new(0);
static HEAP_PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak, so that
/// one query's transient memory can be read on its own: the kernel's
/// `VmHWM` keeps the peak of the whole process.
pub struct CountingAlloc;

impl CountingAlloc {
    fn grew(by: usize) {
        let live = HEAP_LIVE.fetch_add(by, Ordering::Relaxed) + by;
        HEAP_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        HEAP_LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Self::grew(new_size - layout.size());
            } else {
                HEAP_LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Starts a heap watch: resets the peak to the bytes live now, and
/// returns them.
pub fn heap_mark() -> usize {
    let live = HEAP_LIVE.load(Ordering::Relaxed);
    HEAP_PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak heap bytes above `mark` since [`heap_mark`] returned it, in MB
/// (10^6 bytes).
pub fn heap_grown_mb(mark: usize) -> f64 {
    HEAP_PEAK.load(Ordering::Relaxed).saturating_sub(mark) as f64 / 1e6
}

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// Host-wide steal seconds and this process's CPU seconds so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuClock {
    steal_s: f64,
    process_s: f64,
}

impl CpuClock {
    /// Reads both counters now.
    pub fn now() -> Self {
        let steal_s = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().find(|l| l.starts_with("cpu "))?;
                cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
            })
            .map_or(0.0, |t| t / USER_HZ);
        let process_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name; utime and
                // stime are fields 14 and 15 of the whole line.
                let rest = &s[s.rfind(')')? + 2..];
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
            })
            .map_or(0.0, |t| t / USER_HZ);
        CpuClock { steal_s, process_s }
    }

    /// `(steal seconds, process CPU seconds)` elapsed since `earlier`.
    pub fn since(self, earlier: CpuClock) -> (f64, f64) {
        (
            self.steal_s - earlier.steal_s,
            self.process_s - earlier.process_s,
        )
    }
}

/// The host record every run prints: what the figures were measured on.
pub fn host_record() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut caches = String::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read =
            |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).map(|s| s.trim().to_string());
        let (Ok(level), Ok(kind), Ok(size)) = (read("level"), read("type"), read("size")) else {
            continue;
        };
        if kind != "Instruction" {
            let _ = write!(caches, " L{level}={size}");
        }
    }
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("host: available_parallelism={cpus} cpu=\"{model}\" caches:{caches} build_profile={profile}")
}

/// One recorded span: a call into a layer made by the benchmark.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    query: Option<u64>,
}

/// In-memory span recorder of a traced run; a no-op when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span from instants the caller took anyway; returns its
    /// id for children to name as their parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        query: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            query,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, Option<usize>) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let id = self.span(name, t0, t1, parent, query);
        (r, (t1 - t0).as_secs_f64(), id)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans (one JSON object per line) followed by a final
    /// line holding the per-layer metrics.
    pub fn write(&self, path: &std::path::Path, metrics: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"query\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.query)
            )?;
        }
        writeln!(w, "{metrics}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn heap_watch_sees_a_transient_allocation() {
        let mark = heap_mark();
        drop(black_box(vec![1u8; 5_000_000]));
        // Other tests allocate at the same time, so only a lower bound holds.
        assert!(heap_grown_mb(mark) >= 5.0);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _, id) = t.time("x", None, None, || 5);
        assert_eq!((v, id, t.len()), (5, None, 0));
        let mut t = Tracer::new(true);
        let (_, _, id) = t.time("x", None, Some(1), || ());
        assert_eq!((id, t.len()), (Some(0), 1));
    }
}
