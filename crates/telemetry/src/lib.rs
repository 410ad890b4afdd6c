//! Lightweight, dependency-light observability for the BIRP workspace.
//!
//! Design goals, in priority order:
//!
//! 1. **Zero cost when disabled.** The global facade starts disabled; every
//!    entry point bails after a single relaxed atomic load, so instrumented
//!    hot paths (simplex pivots, B&B waves, per-slot scheduling) pay nothing
//!    measurable in production runs. Seeded runs produce byte-identical
//!    outputs with telemetry off because nothing here touches the RNG or the
//!    decision path — instrumentation only *reads* solver/runner state.
//! 2. **Determinism.** Apart from wall-clock timing fields (span durations,
//!    the `t_ms` event timestamp), identical seeded runs produce identical
//!    event streams: counters, histogram value sequences and field maps are
//!    all derived from deterministic simulation state.
//! 3. **Structured, greppable output.** Events are name + ordered key/value
//!    fields; the [`JsonlSink`] writes one JSON object per line so runs can
//!    be analysed with standard line tools (`jq`, `grep`) or loaded back by
//!    `birp report`.
//!
//! The facade keeps three kinds of state in a global registry guarded by
//! `parking_lot` locks:
//!
//! - **counters** — monotonic `u64` totals (`counter("solver.nodes", n)`),
//! - **histograms** — log₂-bucketed value distributions
//!   ([`LogHistogram`]; `observe("runner.decide_ms", dt)`),
//! - **events** — leveled, structured records forwarded to the active
//!   [`Sink`] (`event(Level::Info, "runner.slot", &[...])`).
//!
//! [`Span`] guards time a scope and feed the elapsed milliseconds into a
//! histogram on drop. Spans additionally form a **causal tree**: every span
//! carries a stable id derived from `(parent id, name, child index)`, so
//! identical seeded runs produce identical tree structure (only the duration
//! fields vary) and `birp profile` can rebuild the decide → presolve → wave
//! → node-LP hierarchy from a JSONL capture. [`SpanContext`] carries the
//! current span id across thread boundaries (rayon waves, the thread-local
//! simplex-engine pools) with caller-supplied deterministic child indices.
//! [`summary()`] snapshots counters and histogram quantiles for end-of-run
//! reporting, and [`render_summary`] pretty-prints that snapshot as the
//! table `birp report` shows.

pub mod profile;

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
pub use serde::Value;
use serde::{DeError, Deserialize, Serialize};

// --- levels --------------------------------------------------------------

/// Event severity. Events below the configured minimum are dropped before
/// reaching the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a CLI-style level name (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            _ => Level::Error,
        }
    }
}

// --- events & sinks ------------------------------------------------------

/// A structured telemetry record: severity, dotted name, ordered fields.
#[derive(Debug, Clone)]
pub struct Event {
    pub level: Level,
    pub name: String,
    /// Milliseconds since telemetry was initialised (wall clock).
    pub t_ms: f64,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Lower to the JSON object shape written by [`JsonlSink`].
    pub fn to_value(&self) -> Value {
        let mut obj = vec![
            ("t_ms".to_string(), Value::Float(round3(self.t_ms))),
            ("level".to_string(), Value::Str(self.level.as_str().into())),
            ("name".to_string(), Value::Str(self.name.clone())),
        ];
        for (k, v) in &self.fields {
            obj.push((k.to_string(), v.clone()));
        }
        Value::Object(obj)
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Destination for telemetry events. Implementations must be thread-safe:
/// solver worker threads emit concurrently with the main loop.
pub trait Sink: Send + Sync {
    fn record(&self, event: &Event);
    fn flush(&self) {}
}

/// Discards everything (the default sink).
pub struct NullSink;

impl Sink for NullSink {
    fn record(&self, _event: &Event) {}
}

/// Writes one JSON object per event to a buffered file (JSON Lines).
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = serde_json::to_string(&event.to_value()).unwrap_or_default();
        let mut w = self.writer.lock();
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Buffers events in memory; used by tests and `RunResult` capture.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

/// JSONL sink that survives IO failures (disk full, EPIPE, yanked volume).
///
/// On a failed write it retries once after a short backoff, then degrades
/// permanently: the writer is dropped, a `telemetry.sink_degraded` counter
/// is bumped, and every event from the failing one onward is buffered in an
/// in-memory fallback instead. The run itself never sees the error — losing
/// a telemetry file must not abort a long service run.
pub struct DegradingSink {
    primary: Mutex<Option<Box<dyn Write + Send>>>,
    fallback: MemorySink,
    degraded: AtomicBool,
    retry_backoff: Duration,
}

impl DegradingSink {
    /// Open `path` for buffered JSONL writing, as [`JsonlSink::create`].
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Wrap an arbitrary writer (tests inject failing writers here).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> Self {
        DegradingSink {
            primary: Mutex::new(Some(writer)),
            fallback: MemorySink::new(),
            degraded: AtomicBool::new(false),
            retry_backoff: Duration::from_millis(10),
        }
    }

    /// True once the primary writer has been abandoned.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Events captured after degradation (empty while the file is healthy).
    pub fn drain_fallback(&self) -> Vec<Event> {
        self.fallback.drain()
    }

    /// Drop the primary writer and route everything to the fallback.
    /// Must be called without `self.primary` held (it bumps a counter,
    /// which takes the registry lock).
    fn degrade(&self) {
        *self.primary.lock() = None;
        if !self.degraded.swap(true, Ordering::AcqRel) {
            counter("telemetry.sink_degraded", 1);
        }
    }
}

impl Sink for DegradingSink {
    fn record(&self, event: &Event) {
        if self.is_degraded() {
            self.fallback.record(event);
            return;
        }
        let line = serde_json::to_string(&event.to_value()).unwrap_or_default();
        let ok = {
            let mut guard = self.primary.lock();
            match guard.as_mut() {
                Some(w) => {
                    if writeln!(w, "{line}").is_ok() {
                        true
                    } else {
                        // One retry after a short backoff: transient
                        // conditions (pipe pressure, NFS hiccup) recover;
                        // persistent ones (ENOSPC, EPIPE) degrade.
                        std::thread::sleep(self.retry_backoff);
                        writeln!(w, "{line}").is_ok()
                    }
                }
                None => false,
            }
        };
        if !ok {
            self.degrade();
            self.fallback.record(event);
        }
    }

    fn flush(&self) {
        if self.is_degraded() {
            return;
        }
        let ok = {
            let mut guard = self.primary.lock();
            match guard.as_mut() {
                Some(w) => w.flush().is_ok(),
                None => false,
            }
        };
        if !ok {
            self.degrade();
        }
    }
}

// --- histograms ----------------------------------------------------------

/// Fixed-size log₂-bucketed histogram.
///
/// Bucket `i` covers values in `[2^(i-32), 2^(i-31))`, so the usable range
/// spans ~2⁻³² to ~2³¹ — nanoseconds-as-milliseconds up to hours, or counts
/// from 1 to billions. Values ≤ 0 land in bucket 0. Quantiles are estimated
/// at the geometric midpoint of the selected bucket, giving ≤ √2 relative
/// error, which is plenty for latency reporting.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    buckets: [u64; 64],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; 64],
        }
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket a value falls into.
    pub fn bucket_index(value: f64) -> usize {
        if value <= 0.0 || !value.is_finite() {
            return 0;
        }
        (value.log2().floor() + 32.0).clamp(0.0, 63.0) as usize
    }

    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile from the bucket counts (geometric midpoint of
    /// the bucket containing the q-th sample; exact min/max at the ends).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = 2f64.powf(i as f64 - 32.0 + 0.5);
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: if self.count == 0 { 0.0 } else { self.mean() },
            p50: if self.count == 0 {
                0.0
            } else {
                self.quantile(0.50)
            },
            p90: if self.count == 0 {
                0.0
            } else {
                self.quantile(0.90)
            },
            p99: if self.count == 0 {
                0.0
            } else {
                self.quantile(0.99)
            },
        }
    }
}

// Hand-written serde: the `[u64; 64]` bucket array is not derive-supported
// by the vendored serde, and the empty-histogram ±∞ sentinels would lower to
// JSON `null`. Buckets serialize with trailing zeros trimmed; min/max are
// omitted for empty histograms and restored to the sentinels on read.
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        let trimmed = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        let buckets: Vec<Value> = self.buckets[..trimmed]
            .iter()
            .map(|&n| Value::UInt(n))
            .collect();
        let mut obj = vec![
            ("count".to_string(), Value::UInt(self.count)),
            ("sum".to_string(), Value::Float(self.sum)),
        ];
        if self.count > 0 {
            obj.push(("min".to_string(), Value::Float(self.min)));
            obj.push(("max".to_string(), Value::Float(self.max)));
        }
        obj.push(("buckets".to_string(), Value::Array(buckets)));
        Value::Object(obj)
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom("LogHistogram: expected object"))?;
        let mut h = LogHistogram::new();
        h.count = serde::field(obj, "count")
            .and_then(Value::as_u64)
            .ok_or_else(|| DeError::custom("LogHistogram: missing count"))?;
        h.sum = serde::field(obj, "sum")
            .and_then(Value::as_f64)
            .ok_or_else(|| DeError::custom("LogHistogram: missing sum"))?;
        if h.count > 0 {
            h.min = serde::field(obj, "min")
                .and_then(Value::as_f64)
                .ok_or_else(|| DeError::custom("LogHistogram: missing min"))?;
            h.max = serde::field(obj, "max")
                .and_then(Value::as_f64)
                .ok_or_else(|| DeError::custom("LogHistogram: missing max"))?;
        }
        let buckets = serde::field(obj, "buckets")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::custom("LogHistogram: missing buckets"))?;
        if buckets.len() > h.buckets.len() {
            return Err(DeError::custom("LogHistogram: too many buckets"));
        }
        for (slot, v) in h.buckets.iter_mut().zip(buckets.iter()) {
            *slot = v
                .as_u64()
                .ok_or_else(|| DeError::custom("LogHistogram: bad bucket"))?;
        }
        Ok(h)
    }
}

/// Snapshot of one histogram, with quantiles resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Snapshot of every counter and histogram in the registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl TelemetrySummary {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

// --- global registry -----------------------------------------------------

struct Registry {
    counters: std::collections::BTreeMap<String, u64>,
    histograms: std::collections::BTreeMap<String, LogHistogram>,
    sink: std::sync::Arc<dyn Sink>,
    epoch: Instant,
}

impl Registry {
    fn new() -> Self {
        Registry {
            counters: Default::default(),
            histograms: Default::default(),
            sink: std::sync::Arc::new(NullSink),
            epoch: Instant::now(),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: std::sync::OnceLock<Mutex<Registry>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::new()))
}

/// Version of the JSONL record layout written by [`JsonlSink`] captures —
/// bumped whenever the shape of the header/span/summary records changes.
pub const SCHEMA_VERSION: u64 = 2;

/// Capture attribution carried by the [`init_with_meta`] header record: the
/// command line that produced the run and a fingerprint of its resolved
/// configuration (see [`fingerprint_args`]).
#[derive(Debug, Clone, Default)]
pub struct RunMeta {
    /// Human-readable invocation (e.g. the joined CLI argv).
    pub command: String,
    /// Stable hash of the resolved run configuration.
    pub config_fingerprint: u64,
}

/// Stable FNV-1a fingerprint of an argument list — the config id stamped
/// into the capture header so telemetry files, goldens and BENCH json are
/// attributable to the exact invocation that produced them.
pub fn fingerprint_args<I, S>(args: I) -> u64
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut h = FNV_OFFSET;
    for a in args {
        for &b in a.as_ref().as_bytes() {
            h = fnv_step(h, b);
        }
        h = fnv_step(h, 0x1f); // unit separator between arguments
    }
    h
}

/// Enable telemetry with the given sink and minimum event level. Clears any
/// state accumulated by a previous run.
pub fn init(sink: std::sync::Arc<dyn Sink>, min_level: Level) {
    init_with_meta(sink, min_level, None);
}

/// [`init`], plus an attribution header: when `meta` is given, a
/// `telemetry.meta` record (schema version, build/commit id, command line,
/// config fingerprint) is written to the sink before anything else, so a
/// JSONL capture is self-describing. Like `telemetry.summary`, the header
/// bypasses the level filter — it is attribution, not an event.
pub fn init_with_meta(sink: std::sync::Arc<dyn Sink>, min_level: Level, meta: Option<RunMeta>) {
    {
        let mut reg = registry().lock();
        reg.counters.clear();
        reg.histograms.clear();
        reg.sink = sink.clone();
        reg.epoch = Instant::now();
    }
    // New trace generation: every thread's span stack resets lazily, so
    // span ids restart from the same seeds on every run.
    TRACE_GEN.fetch_add(1, Ordering::Relaxed);
    MIN_LEVEL.store(min_level as u8, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    if let Some(meta) = meta {
        sink.record(&Event {
            level: Level::Info,
            name: "telemetry.meta".to_string(),
            t_ms: 0.0,
            fields: vec![
                ("schema_version", SCHEMA_VERSION.into()),
                ("build", env!("CARGO_PKG_VERSION").into()),
                (
                    "commit",
                    option_env!("BIRP_BUILD_COMMIT").unwrap_or("unknown").into(),
                ),
                ("command", meta.command.into()),
                (
                    "config_fingerprint",
                    format!("{:016x}", meta.config_fingerprint).into(),
                ),
                ("min_level", min_level.as_str().into()),
            ],
        });
    }
}

/// Convenience: enable telemetry writing JSON Lines to `path`.
pub fn init_jsonl(path: impl AsRef<Path>, min_level: Level) -> std::io::Result<()> {
    init_jsonl_with_meta(path, min_level, RunMeta::default())
}

/// [`init_jsonl`] with capture attribution: the file opens with a
/// `telemetry.meta` header record (see [`init_with_meta`]).
pub fn init_jsonl_with_meta(
    path: impl AsRef<Path>,
    min_level: Level,
    meta: RunMeta,
) -> std::io::Result<()> {
    let sink = JsonlSink::create(path)?;
    init_with_meta(std::sync::Arc::new(sink), min_level, Some(meta));
    Ok(())
}

/// Flush the sink and disable the facade. Counters/histograms stay readable
/// through [`summary()`] until the next [`init`].
///
/// Before disabling, the full [`summary()`] snapshot is emitted as a final
/// `telemetry.summary` event so a JSONL capture is self-contained:
/// `birp report` renders the end-of-run table from that record alone. The
/// record bypasses the level filter — it is the capture's payload, and a
/// `--log-level warn` run would otherwise produce a file `report` cannot
/// summarise.
pub fn shutdown() {
    if !enabled() {
        return;
    }
    let snapshot = summary();
    let (sink, t_ms) = {
        let reg = registry().lock();
        (reg.sink.clone(), reg.epoch.elapsed().as_secs_f64() * 1000.0)
    };
    sink.record(&Event {
        level: Level::Info,
        name: "telemetry.summary".to_string(),
        t_ms,
        fields: vec![("summary", Serialize::to_value(&snapshot))],
    });
    ENABLED.store(false, Ordering::Relaxed);
    registry().lock().sink.flush();
}

/// Fast-path check used by all entry points (and available to callers that
/// want to skip building fields entirely).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current minimum event level.
pub fn min_level() -> Level {
    Level::from_u8(MIN_LEVEL.load(Ordering::Relaxed))
}

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    if let Some(c) = reg.counters.get_mut(name) {
        *c += delta;
    } else {
        reg.counters.insert(name.to_string(), delta);
    }
}

/// Current value of a named counter (`None` when absent or telemetry is
/// off). Provenance records use before/after reads of the solver counters
/// to attribute warm/cold LP work to a single slot.
pub fn counter_value(name: &str) -> Option<u64> {
    if !enabled() {
        return None;
    }
    registry().lock().counters.get(name).copied()
}

/// Record `value` into the named histogram.
#[inline]
pub fn observe(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    if let Some(h) = reg.histograms.get_mut(name) {
        h.observe(value);
    } else {
        let mut h = LogHistogram::new();
        h.observe(value);
        reg.histograms.insert(name.to_string(), h);
    }
}

/// Emit a structured event to the sink (dropped below the minimum level).
#[inline]
pub fn event(level: Level, name: &str, fields: &[(&'static str, Value)]) {
    if !enabled() || (level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    let (sink, t_ms) = {
        let reg = registry().lock();
        (reg.sink.clone(), reg.epoch.elapsed().as_secs_f64() * 1000.0)
    };
    sink.record(&Event {
        level,
        name: name.to_string(),
        t_ms,
        fields: fields.to_vec(),
    });
}

/// Snapshot all counters and histogram summaries.
pub fn summary() -> TelemetrySummary {
    let reg = registry().lock();
    TelemetrySummary {
        counters: reg.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        histograms: reg
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summarize()))
            .collect(),
    }
}

/// Disable the facade and drop all recorded state (tests use this to
/// isolate themselves; runs use [`init`]'s implicit clear instead).
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut reg = registry().lock();
    reg.counters.clear();
    reg.histograms.clear();
    reg.sink = std::sync::Arc::new(NullSink);
}

// --- spans ---------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

#[inline]
fn fnv_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Stable span id: FNV-1a over `(parent id, name, child index)`. Id 0 is
/// reserved for the implicit per-thread root, so a hash landing on 0 is
/// remapped to 1.
fn derive_span_id(parent: u64, name: &str, seq: u32) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in &parent.to_le_bytes() {
        h = fnv_step(h, b);
    }
    for &b in name.as_bytes() {
        h = fnv_step(h, b);
    }
    for &b in &seq.to_le_bytes() {
        h = fnv_step(h, b);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Trace generation: bumped by [`init`] so per-thread span stacks (which may
/// hold frames from a previous run in the same process) reset lazily, making
/// span ids reproducible run-to-run.
static TRACE_GEN: AtomicU64 = AtomicU64::new(0);

/// Monotonic lane ids for Chrome-trace rendering. The thread id is the one
/// deliberately non-deterministic span field: it names the OS thread a span
/// happened to run on and never feeds into span ids.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

struct Frame {
    id: u64,
    next_child: u32,
}

struct SpanStack {
    generation: u64,
    frames: Vec<Frame>,
}

thread_local! {
    static SPAN_STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack {
            generation: 0,
            frames: Vec::new(),
        })
    };
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

fn local_tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

fn with_stack<R>(f: impl FnOnce(&mut SpanStack) -> R) -> R {
    SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let generation = TRACE_GEN.load(Ordering::Relaxed);
        if s.generation != generation || s.frames.is_empty() {
            s.generation = generation;
            s.frames.clear();
            s.frames.push(Frame {
                id: 0,
                next_child: 0,
            });
        }
        f(&mut s)
    })
}

/// Times a scope; on drop, the elapsed milliseconds are observed into the
/// histogram `<name>` and (at trace level) emitted as a `span` event carrying
/// the causal-tree fields `id`/`parent`/`seq`/`tid`.
///
/// Spans are strict scope guards: on any one thread they must drop in LIFO
/// order (the natural order for `let _span = span(...)` guards). Sequential
/// siblings get consecutive child indices from their parent's frame; work
/// fanned out across threads must instead derive children from an explicit
/// [`SpanContext`] so the index is the *item* index, not thread arrival
/// order.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    id: u64,
    parent: u64,
    seq: u32,
}

impl Span {
    /// Elapsed milliseconds so far (0 when telemetry is disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.start
            .map(|s| s.elapsed().as_secs_f64() * 1000.0)
            .unwrap_or(0.0)
    }

    /// Stable id of this span (0 when telemetry is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Context handle for deterministic cross-thread children.
    pub fn context(&self) -> SpanContext {
        SpanContext { id: self.id }
    }
}

/// Start a span feeding the named histogram. When telemetry is disabled the
/// guard is inert (no clock read, no stack touch).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start: None,
            id: 0,
            parent: 0,
            seq: 0,
        };
    }
    let (id, parent, seq) = with_stack(|s| {
        let top = s.frames.last_mut().expect("root frame");
        let parent = top.id;
        let seq = top.next_child;
        top.next_child += 1;
        let id = derive_span_id(parent, name, seq);
        s.frames.push(Frame { id, next_child: 0 });
        (id, parent, seq)
    });
    Span {
        name,
        start: Some(Instant::now()),
        id,
        parent,
        seq,
    }
}

/// A position in the span tree that can be shipped across threads (`Copy`,
/// `Send`). Rayon wave workers and the thread-local `with_engine` pools
/// capture the parent's context before the fan-out and open children with
/// [`SpanContext::span_at`], passing the *item index* as the child index —
/// so the resulting tree is identical no matter which worker ran which item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
}

impl SpanContext {
    /// Context of the innermost open span on this thread (the per-thread
    /// root when none is open, id 0 when telemetry is disabled).
    pub fn current() -> SpanContext {
        if !enabled() {
            return SpanContext { id: 0 };
        }
        SpanContext {
            id: with_stack(|s| s.frames.last().expect("root frame").id),
        }
    }

    /// Open a child of this context with a caller-supplied child index.
    pub fn span_at(self, name: &'static str, seq: u32) -> Span {
        if !enabled() {
            return Span {
                name,
                start: None,
                id: 0,
                parent: 0,
                seq: 0,
            };
        }
        let id = derive_span_id(self.id, name, seq);
        with_stack(|s| s.frames.push(Frame { id, next_child: 0 }));
        Span {
            name,
            start: Some(Instant::now()),
            id,
            parent: self.id,
            seq,
        }
    }
}

/// True when fine-grained (per-wave / per-node) spans should be created:
/// telemetry is on *and* the minimum level is `Trace`. Hot loops check this
/// once so the default `Debug` level pays nothing per node (the ≤ 5%
/// overhead budget, perfbench's `trace_overhead_pct`).
#[inline]
pub fn trace_spans() -> bool {
    enabled() && MIN_LEVEL.load(Ordering::Relaxed) == Level::Trace as u8
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            // Balance the frame pushed at construction. After a mid-span
            // re-init the generation check has already cleared the stack and
            // the guard below leaves the fresh root frame alone.
            with_stack(|s| {
                if s.frames.len() > 1 {
                    s.frames.pop();
                }
            });
            if enabled() {
                let ms = start.elapsed().as_secs_f64() * 1000.0;
                observe(self.name, ms);
                event(
                    Level::Trace,
                    "span",
                    &[
                        ("span", self.name.into()),
                        ("id", Value::UInt(self.id)),
                        ("parent", Value::UInt(self.parent)),
                        ("seq", Value::UInt(self.seq as u64)),
                        ("ms", round3(ms).into()),
                        ("tid", Value::UInt(local_tid())),
                    ],
                );
            }
        }
    }
}

// --- summary rendering ---------------------------------------------------

/// Render a summary as the aligned text table printed by `birp report` and
/// at the end of telemetry-enabled CLI runs.
pub fn render_summary(summary: &TelemetrySummary) -> String {
    let mut out = String::new();
    if !summary.counters.is_empty() {
        out.push_str("counters\n");
        let width = summary
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        for (name, value) in &summary.counters {
            out.push_str(&format!("  {name:<width$}  {value}\n"));
        }
    }
    if !summary.histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let width = summary
            .histograms
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("histogram".len());
        out.push_str(&format!(
            "{:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "histogram", "count", "mean", "p50", "p90", "p99", "max"
        ));
        for (name, h) in &summary.histograms {
            out.push_str(&format!(
                "{name:<width$}  {:>8}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}  {:>10.3}\n",
                h.count, h.mean, h.p50, h.p90, h.p99, h.max
            ));
        }
    }
    if out.is_empty() {
        out.push_str("(no telemetry recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // The registry is global, so tests that exercise it share one lock to
    // avoid interleaving (cargo runs tests on multiple threads).
    static TEST_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_facade_is_inert() {
        let _g = TEST_GUARD.lock();
        reset();
        counter("x", 5);
        observe("y", 1.0);
        event(Level::Error, "z", &[]);
        let s = summary();
        assert!(s.counters.is_empty());
        assert!(s.histograms.is_empty());
        let span = span("unused");
        assert_eq!(span.elapsed_ms(), 0.0);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let _g = TEST_GUARD.lock();
        init(Arc::new(NullSink), Level::Info);
        counter("solver.nodes", 3);
        counter("solver.nodes", 4);
        observe("lat", 1.0);
        observe("lat", 4.0);
        let s = summary();
        assert_eq!(s.counter("solver.nodes"), Some(7));
        let h = s.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
        assert!((h.mean - 2.5).abs() < 1e-12);
        reset();
    }

    #[test]
    fn events_respect_min_level_and_reach_sink() {
        let _g = TEST_GUARD.lock();
        let sink = Arc::new(MemorySink::new());
        init(sink.clone(), Level::Info);
        event(Level::Debug, "dropped", &[]);
        event(Level::Info, "kept", &[("k", 1u64.into())]);
        shutdown();
        let events = sink.drain();
        // The debug event is filtered; shutdown appends telemetry.summary.
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "kept");
        assert_eq!(events[0].fields[0], ("k", Value::UInt(1)));
        assert_eq!(events[1].name, "telemetry.summary");
        reset();
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        // Satellite: explicit bucket-boundary coverage.
        assert_eq!(LogHistogram::bucket_index(1.0), 32);
        assert_eq!(LogHistogram::bucket_index(1.5), 32);
        assert_eq!(LogHistogram::bucket_index(2.0), 33);
        assert_eq!(LogHistogram::bucket_index(0.5), 31);
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-3.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        // Extremes clamp instead of indexing out of range.
        assert_eq!(LogHistogram::bucket_index(1e300), 63);
        assert_eq!(LogHistogram::bucket_index(1e-300), 0);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_accurate() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        assert_eq!(h.count, 1000);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 1000.0);
        let p50 = h.quantile(0.5);
        // Log buckets guarantee no worse than a factor-√2 midpoint estimate.
        assert!((250.0..=1000.0).contains(&p50), "p50={p50}");
        let empty = LogHistogram::new();
        assert!(empty.quantile(0.5).is_nan());
    }

    #[test]
    fn span_records_elapsed_into_histogram() {
        let _g = TEST_GUARD.lock();
        init(Arc::new(NullSink), Level::Info);
        {
            let _span = span("work.ms");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = summary();
        let h = s.histogram("work.ms").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 1.0, "span under-measured: {:?}", h);
        reset();
    }

    #[test]
    fn summary_renders_as_table() {
        let summary = TelemetrySummary {
            counters: vec![("solver.nodes".into(), 42)],
            histograms: vec![(
                "runner.decide_ms".into(),
                HistogramSummary {
                    count: 10,
                    sum: 50.0,
                    min: 1.0,
                    max: 9.0,
                    mean: 5.0,
                    p50: 4.0,
                    p90: 8.0,
                    p99: 9.0,
                },
            )],
        };
        let text = render_summary(&summary);
        assert!(text.contains("solver.nodes"));
        assert!(text.contains("runner.decide_ms"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn summary_serializes_roundtrip() {
        let s = TelemetrySummary {
            counters: vec![("a".into(), 1)],
            histograms: vec![],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn log_histogram_serde_round_trip() {
        let mut h = LogHistogram::new();
        for v in [0.25, 1.0, 3.0, 900.0, 1e6] {
            h.observe(v);
        }
        let json = serde_json::to_string(&Serialize::to_value(&h)).unwrap();
        let back = LogHistogram::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back.count, h.count);
        assert_eq!(back.sum, h.sum);
        assert_eq!(back.min, h.min);
        assert_eq!(back.max, h.max);
        assert_eq!(back.buckets, h.buckets);

        // Empty histograms survive the ±∞ sentinels.
        let empty = LogHistogram::new();
        let json = serde_json::to_string(&Serialize::to_value(&empty)).unwrap();
        let back = LogHistogram::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back.count, 0);
        assert_eq!(back.min, f64::INFINITY);
        assert_eq!(back.max, f64::NEG_INFINITY);
    }

    /// Writer that accepts `good_lines` complete lines, then fails forever
    /// (a `writeln!` may arrive as several `write` calls, so count newlines
    /// rather than calls).
    struct FlakyWriter {
        good_lines: usize,
        written: usize,
    }

    impl Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written >= self.good_lines {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "disk full",
                ));
            }
            self.written += buf.iter().filter(|&&b| b == b'\n').count();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn degrading_sink_falls_back_to_memory() {
        let _g = TEST_GUARD.lock();
        let sink = Arc::new(DegradingSink::from_writer(Box::new(FlakyWriter {
            good_lines: 2,
            written: 0,
        })));
        init(sink.clone(), Level::Info);
        event(Level::Info, "a", &[]); // written
        event(Level::Info, "b", &[]); // written
        assert!(!sink.is_degraded());
        event(Level::Info, "c", &[]); // fails, retries, degrades — kept in memory
        event(Level::Info, "d", &[]); // straight to fallback
        assert!(sink.is_degraded());
        let s = summary();
        assert_eq!(s.counter("telemetry.sink_degraded"), Some(1));
        let kept: Vec<String> = sink
            .drain_fallback()
            .iter()
            .map(|e| e.name.clone())
            .collect();
        assert_eq!(kept, vec!["c".to_string(), "d".to_string()]);
        reset();
    }

    #[test]
    fn degrading_sink_healthy_path_writes_jsonl() {
        let _g = TEST_GUARD.lock();
        let dir = std::env::temp_dir().join(format!("birp-degrade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let sink = Arc::new(DegradingSink::create(&path).unwrap());
        init(sink.clone(), Level::Info);
        event(Level::Info, "hello", &[("k", 1u64.into())]);
        sink.flush();
        assert!(!sink.is_degraded());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"name\": \"hello\"") || text.contains("\"name\":\"hello\""));
        reset();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }
}
