//! End-to-end and per-layer benchmark of `PHashMap` on PAX vPM.
//!
//! One command runs a workload as a closed loop (one client per thread,
//! each issuing its next op only after the previous one returned),
//! checks every result against a model, crashes the pool with one epoch
//! open and checks that recovery restores the last committed persist,
//! and prints every metric by name with its unit. With tracing on, a
//! second run records spans at the allocator and vPM seams, and a replay
//! through the public layer types splits the vPM time into host cache
//! and device.
//!
//! Run: `cargo run --release --manifest-path paxbench/Cargo.toml --
//! --workload kv-write --seed 1 --seconds 10 --trace 0`

#![forbid(unsafe_code)]

pub mod cli;
pub mod latency;
pub mod model;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;

use pax_pm::LatencyProfile;
use pax_telemetry::{Json, MetricSnapshot, TelemetrySnapshot};

use crate::cli::Args;
use crate::latency::LatencyLog;
use crate::replay::HOME_KINDS;
use crate::run::{Inputs, Plain, PoolPhase, PoolRun, RecoverySample, Settings, Tally, Traced};
use crate::trace::Layer;
use crate::workload::Shape;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every result, the recovered tables, and the replay matched.
    pub correct: bool,
    /// Ops, persists and checks attempted.
    pub attempted: u64,
    /// Of which failed or returned a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Seed, configuration, run length, sample counts and check details.
    pub report: Json,
}

impl Outcome {
    /// The one-line result object the benchmark prints last.
    pub fn result_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.field(
                &m.name,
                Json::obj().field("value", Json::F64(m.value)).field("unit", Json::str(m.unit)),
            );
        }
        Json::obj()
            .field("correct", Json::Bool(self.correct))
            .field("attempted", Json::U64(self.attempted))
            .field("failed", Json::U64(self.failed))
            .field("metrics", metrics)
            .render()
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn counter(snap: &TelemetrySnapshot, component: &str, name: &str) -> f64 {
    snap.counter(component, name) as f64
}

/// Counter names whose `tenant{t}/` labels do not sum to the total.
fn label_mismatches(snap: &TelemetrySnapshot) -> Vec<String> {
    let Some(device) = snap.component("device") else { return Vec::new() };
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, v) in device.counters() {
        if let Some((label, base)) = name.split_once('/') {
            if label.starts_with("tenant") {
                *sums.entry(base).or_default() += v;
            }
        }
    }
    sums.into_iter().filter(|&(n, s)| s != device.counter(n)).map(|(n, _)| n.to_string()).collect()
}

/// Counters of the replay's `replayed` component that differ from the
/// same component of the pool run.
fn counter_mismatches(pool: &TelemetrySnapshot, replayed: &MetricSnapshot) -> Vec<String> {
    let comp = replayed.component.as_str();
    replayed
        .counters()
        .filter(|&(n, v)| pool.counter(comp, n) != v)
        .map(|(n, _)| format!("{comp}.{n}"))
        .collect()
}

struct Collector(Vec<Metric>);

impl Collector {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }
}

fn strings(v: &[String]) -> Json {
    v.iter().fold(Json::arr(), |a, s| a.push(Json::str(s)))
}

fn floats(v: impl IntoIterator<Item = f64>) -> Json {
    v.into_iter().fold(Json::arr(), |a, x| a.push(Json::F64(x)))
}

/// Timed set-ups; the last one is kept for measurement.
fn set_up<K: run::Stack>(
    shape: &Shape,
    inputs: &Inputs,
    n: usize,
    tally: &mut Tally,
) -> Result<(PoolRun<K>, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let (run, s) = run::setup::<K>(shape, inputs, tally).map_err(|e| e.to_string())?;
        secs.push(s);
        kept = Some(run);
    }
    Ok((kept.expect("at least one set-up"), secs))
}

/// Latency percentiles and their sample counts.
struct Latency {
    p50_us: f64,
    p99_us: f64,
    samples: u64,
    beyond_p99: u64,
}

impl Latency {
    fn of(log: &LatencyLog) -> Self {
        let mut log = log.clone();
        let (p50, _) = log.percentile(0.50);
        let (p99, beyond_p99) = log.percentile(0.99);
        Latency {
            p50_us: p50 as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            samples: log.len(),
            beyond_p99,
        }
    }

    fn json(&self) -> Json {
        Json::obj()
            .field("samples", Json::U64(self.samples))
            .field("samples_beyond_p99", Json::U64(self.beyond_p99))
    }
}

/// Runs one workload as `args` asks.
///
/// # Errors
///
/// Returns a message when the pool cannot be built, recovered or
/// re-attached; wrong results are reported through [`Outcome::correct`].
pub fn run(args: &Args, settings: &Settings) -> Result<Outcome, String> {
    let shape = args.workload.shape();
    let inputs = Inputs::generate(&shape, args.seed);
    let mut tally = Tally::default();
    // A traced run measures an untraced and a traced phase of half the
    // length each, and reports no percentiles.
    let settings = &if args.trace {
        Settings {
            seconds: settings.seconds / 2.0,
            setups: 1,
            recoveries: 1,
            min_persists: 0,
            ..*settings
        }
    } else {
        *settings
    };

    let (mut plain, setup_s) = set_up::<Plain>(&shape, &inputs, settings.setups, &mut tally)?;
    let measured = plain.measure(settings);
    let recovered = plain.recover(settings.recoveries, &mut tally).map_err(|e| e.to_string())?;
    drop(plain);
    let ops_per_s = ratio(measured.phase.ops as f64, measured.phase.wall_s);

    let mut report = Json::obj()
        .field("workload", Json::str(args.workload.name()))
        .field("seed", Json::U64(args.seed))
        .field("seconds", Json::U64(args.seconds))
        .field("phase_seconds", Json::F64(settings.seconds))
        .field("traced", Json::Bool(args.trace))
        .field(
            "host_cores",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .field("config", config_json(&shape));
    let mut labels = if shape.threads > 1 { label_mismatches(&measured.end) } else { Vec::new() };
    let mut replay_mismatches = Vec::new();
    let mut c = Collector(Vec::new());

    if args.trace {
        let (mut traced, _) = set_up::<Traced>(&shape, &inputs, 1, &mut tally)?;
        let phase = traced.measure(settings);
        let rec = traced.recover(1, &mut tally).map_err(|e| e.to_string())?;
        drop(traced);
        if shape.threads > 1 {
            labels.extend(label_mismatches(&phase.end));
        }
        let replayed = run::replay(&shape, &inputs, &phase.phase.epochs, &mut tally)
            .map_err(|e| e.to_string())?;
        replay_mismatches = counter_mismatches(&phase.end, &replayed.device);
        replay_mismatches.extend(counter_mismatches(&phase.end, &replayed.media));
        tally.count(&replayed.phase);
        per_layer(&mut c, &phase, &replayed, &rec[0], ops_per_s);
        let spans = phase.phase.recorder.as_ref().map(|r| r.spans_json_lines()).unwrap_or_default()
            + &rec[0].spans.as_ref().map(|r| r.spans_json_lines()).unwrap_or_default();
        report = report
            .field("traced_run", phase_json(&phase, &shape, settings))
            .field("replay_ops", Json::U64(replayed.phase.ops))
            .field("spans_file", Json::str(write_spans(args, &spans)));
        tally.count(&phase.phase);
    }

    tally.count(&measured.phase);
    let fidelity_required = shape.threads == 1;
    // Label sums are reported, not gated: `sched_idle_steps` and
    // `persist_poll_skipped` are device-scope counters with no lane share.
    labels.sort();
    labels.dedup();
    let correct = tally.failed == 0 && (!fidelity_required || replay_mismatches.is_empty());
    if args.trace {
        c.put("error_rate", "fraction", ratio(tally.failed as f64, tally.attempted as f64));
        c.put("replay.counter_mismatches", "count", replay_mismatches.len() as f64);
        c.put("telemetry.tenant_label_mismatches", "count", labels.len() as f64);
    } else {
        end_to_end(&mut c, &measured, &shape, settings, ops_per_s, &setup_s, &recovered);
    }
    let report = report
        .field("untraced_run", phase_json(&measured, &shape, settings))
        .field("setup_s", floats(setup_s.iter().copied()))
        .field("recovery_s", floats(recovered.iter().map(|r| r.total_s)))
        .field("recovery_open_s", floats(recovered.iter().map(|r| r.open_s)))
        .field("recovery_scanned_entries", Json::U64(recovered[0].report.scanned as u64))
        .field("replay_counter_mismatches", strings(&replay_mismatches))
        .field("tenant_label_mismatches", strings(&labels))
        .field("attempted", Json::U64(tally.attempted))
        .field("failed", Json::U64(tally.failed));
    Ok(Outcome {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: c.0,
        report: Json::obj().field("report", report),
    })
}

fn config_json(shape: &Shape) -> Json {
    let cfg = shape.config();
    let mut j = Json::obj();
    for (k, v) in shape.describe() {
        j = j.field(k, Json::str(v));
    }
    j.field("host_cache_bytes", Json::U64(cfg.cache.capacity_bytes as u64))
        .field("hbm_bytes", Json::U64(cfg.device.hbm.capacity_bytes as u64))
        .field("log_bytes", Json::U64(cfg.pool.log_bytes as u64))
        .field("persistency", Json::str(cfg.device.persistency.label()))
}

fn phase_json(p: &PoolPhase, shape: &Shape, settings: &Settings) -> Json {
    let ph = &p.phase;
    Json::obj()
        .field("ops", Json::U64(ph.ops))
        .field("epochs", ph.epochs.iter().fold(Json::arr(), |a, &e| a.push(Json::U64(e))))
        .field("wall_s", Json::F64(ph.wall_s))
        .field("ops_per_s", Json::F64(ratio(ph.ops as f64, ph.wall_s)))
        .field("op_latency", Latency::of(&ph.op_ns).json())
        .field("persist_latency", Latency::of(&ph.persist_ns).json())
        .field("window_ops", Json::U64(window_ops(ph, shape, settings)))
}

/// Ops the counter-derived end-to-end metrics cover: the deterministic
/// window on one thread, the whole phase otherwise.
fn window_ops(ph: &run::Phase, shape: &Shape, settings: &Settings) -> u64 {
    match ph.window {
        Some(_) => settings.window_ops.div_ceil(shape.persist_every) * shape.persist_every,
        None => ph.ops,
    }
}

fn end_to_end(
    c: &mut Collector,
    m: &PoolPhase,
    shape: &Shape,
    settings: &Settings,
    ops_per_s: f64,
    setup_s: &[f64],
    recovered: &[RecoverySample],
) {
    let ops = Latency::of(&m.phase.op_ns);
    let persists = Latency::of(&m.phase.persist_ns);
    // Counter-derived metrics: over the deterministic window on one
    // thread, over the whole phase otherwise.
    let d = m.phase.window.as_ref().unwrap_or(&m.end).diff(&m.start);
    let n = window_ops(&m.phase, shape, settings) as f64;
    let pm = LatencyProfile::c6420().pm;
    let sim_ns = counter(&d, "device", "pm_reads") * pm.read_ns as f64
        + (2.0 * counter(&d, "device", "undo_entries")
            + counter(&d, "device", "device_writebacks"))
            * pm.write_ns as f64;
    c.put("ops_per_s", "ops/s", ops_per_s);
    c.put("op_p50_us", "us", ops.p50_us);
    c.put("op_p99_us", "us", ops.p99_us);
    c.put("persist_p50_us", "us", persists.p50_us);
    c.put("persist_p99_us", "us", persists.p99_us);
    c.put("recovery_s", "s", median(&recovered.iter().map(|r| r.total_s).collect::<Vec<_>>()));
    c.put("setup_s", "s", median(setup_s));
    c.put("pm_write_bytes_per_op", "B/op", ratio(counter(&d, "media", "line_writes") * 64.0, n));
    c.put("sim_device_ns_per_op", "ns/op", ratio(sim_ns, n));
    c.put("peak_rss_mib", "MiB", peak_rss_mib());
}

fn per_layer(
    c: &mut Collector,
    t: &PoolPhase,
    r: &run::ReplayRun,
    rec: &RecoverySample,
    untraced_ops_per_s: f64,
) {
    let ops = t.phase.ops as f64;
    let d = t.end.diff(&t.start);
    let dev = |name: &str| counter(&d, "device", name);
    let per_op = |v: f64| ratio(v, ops);
    let agg = |l: Layer| t.phase.recorder.as_ref().map(|r| r.agg(l)).unwrap_or_default();
    let (op, alloc, free, read, write, persist) = (
        agg(Layer::Op),
        agg(Layer::BallocAlloc),
        agg(Layer::BallocFree),
        agg(Layer::PoolRead),
        agg(Layer::PoolWrite),
        agg(Layer::Persist),
    );
    let rs = &r.phase.replay;
    let traced_ops_per_s = ratio(ops, t.phase.wall_s);
    let pool_calls = (read.calls + write.calls) as f64;
    let pool_ns = (read.total_ns + write.total_ns) as f64;
    let pool_ns_per_access = ratio(pool_ns, pool_calls);
    let accesses_per_op = per_op(pool_calls);
    let replay_cache_per_access = ratio(rs.cache_ns as f64, rs.accesses as f64);
    let replay_home_per_access = ratio(rs.home_ns_total() as f64, rs.accesses as f64);
    let cache_self_per_access = replay_cache_per_access - replay_home_per_access;
    let pool_self_per_access = pool_ns_per_access - replay_cache_per_access;
    let structures_self = per_op(op.self_ns as f64);
    let balloc_self = per_op((alloc.self_ns + free.self_ns) as f64);
    let allocs = alloc.calls as f64;
    let alloc_d: Vec<MetricSnapshot> = t.alloc.iter().map(|(s, e)| e.diff(s)).collect();
    let alloc_counter = |n: &str| alloc_d.iter().map(|s| s.counter(n)).sum::<u64>() as f64;
    let host = |comp: &str, name: &str| counter(&d, comp, name);
    let hits = host("host_cache", "read_hits") + host("host_cache", "write_hits");
    let lookups = hits + host("host_cache", "read_misses") + host("host_cache", "write_upgrades");
    let end_dev = |name: &str| counter(&t.end, "device", name);

    c.put("trace.ops_per_s", "ops/s", traced_ops_per_s);
    c.put("trace.overhead_ratio", "ratio", ratio(untraced_ops_per_s, traced_ops_per_s));
    c.put("trace.op_ns_per_op", "ns/op", per_op(op.total_ns as f64));
    c.put(
        "trace.self_sum_ns_per_op",
        "ns/op",
        structures_self
            + balloc_self
            + (pool_self_per_access + cache_self_per_access + replay_home_per_access)
                * accesses_per_op,
    );
    c.put(
        "trace.persist_ns_per_persist",
        "ns",
        ratio(persist.total_ns as f64, persist.calls as f64),
    );
    c.put("structures.self_ns_per_op", "ns/op", structures_self);
    c.put(
        "structures.space_calls_per_op",
        "calls/op",
        per_op((read.under_op + write.under_op) as f64),
    );
    c.put("balloc.allocs_per_op", "calls/op", per_op(allocs));
    c.put("balloc.frees_per_op", "calls/op", per_op(free.calls as f64));
    c.put(
        "balloc.ns_per_call",
        "ns/call",
        ratio((alloc.total_ns + free.total_ns) as f64, (alloc.calls + free.calls) as f64),
    );
    c.put("balloc.self_ns_per_op", "ns/op", balloc_self);
    c.put(
        "balloc.scan_frames_per_alloc",
        "frames/alloc",
        ratio(alloc_counter("alloc_scan_frames"), allocs),
    );
    c.put("balloc.fast_hit_ratio", "ratio", ratio(alloc_counter("alloc_fast_hits"), allocs));
    c.put("pool.ns_per_access", "ns/access", pool_ns_per_access);
    c.put(
        "pool.lines_per_access",
        "lines/access",
        ratio((read.lines + write.lines) as f64, pool_calls),
    );
    c.put("pool.accesses_per_op", "calls/op", accesses_per_op);
    c.put("pool.self_ns_per_access", "ns/access", pool_self_per_access);
    c.put("pool.self_ns_per_op", "ns/op", pool_self_per_access * accesses_per_op);
    c.put("cache.hit_ratio", "ratio", ratio(hits, lookups));
    c.put("cache.self_ns_per_access", "ns/access", cache_self_per_access);
    c.put("cache.self_ns_per_op", "ns/op", cache_self_per_access * accesses_per_op);
    c.put("cache.dirty_evictions_per_op", "1/op", per_op(host("host_cache", "dirty_evictions")));
    c.put(
        "core_complex.cache_to_cache_transfers_per_op",
        "1/op",
        per_op(host("core_complex", "cache_to_cache_transfers")),
    );
    c.put("cxl.messages_per_op", "msgs/op", per_op(host("cxl", "messages")));
    c.put("cxl.data_bytes_per_op", "B/op", per_op(host("cxl", "data_bytes")));
    for (i, kind) in HOME_KINDS.iter().enumerate() {
        c.put(
            &format!("device.home_ns_per_call.{kind}"),
            "ns/call",
            ratio(rs.home_ns[i] as f64, rs.home_calls[i] as f64),
        );
    }
    c.put("device.home_ns_per_op", "ns/op", replay_home_per_access * accesses_per_op);
    c.put("device.rd_own_per_op", "1/op", per_op(dev("rd_own")));
    c.put("device.undo_entries_per_op", "1/op", per_op(dev("undo_entries")));
    c.put("device.log_cas_retries_per_op", "1/op", per_op(dev("log_cas_retries")));
    c.put(
        "device.lane_lock_acquisitions_per_op",
        "1/op",
        ratio(r.lane_locks as f64, r.phase.ops as f64),
    );
    c.put(
        "device.hbm_hit_ratio",
        "ratio",
        ratio(dev("hbm_hits"), dev("hbm_hits") + dev("hbm_misses")),
    );
    c.put("device.pm_reads_per_op", "1/op", per_op(dev("pm_reads")));
    c.put("device.writebacks_per_op", "1/op", per_op(dev("device_writebacks")));
    c.put("device.background_writebacks_per_op", "1/op", per_op(dev("background_writebacks")));
    c.put("device.forced_log_flushes_per_op", "1/op", per_op(dev("forced_log_flushes")));
    c.put("device.snoops_per_persist", "1/persist", ratio(dev("snoops_sent"), dev("persists")));
    c.put(
        "device.dir_filter_ratio",
        "ratio",
        ratio(dev("dir_filtered_snoops"), dev("dir_hits") + dev("dir_filtered_snoops")),
    );
    c.put(
        "device.lines_per_wb_batch",
        "lines/batch",
        ratio(dev("device_writebacks"), dev("wb_batches")),
    );
    c.put("device.persist_snoop_share", "ratio", ratio(rs.snoop_ns as f64, rs.persist_ns as f64));
    c.put("device.hbm_resident", "lines", end_dev("hbm_resident"));
    c.put("device.dir_resident", "lines", end_dev("dir_resident"));
    c.put("device.log_reserved", "slots", end_dev("log_reserved"));
    c.put("media.line_writes_per_op", "1/op", per_op(host("media", "line_writes")));
    c.put("media.line_reads_per_op", "1/op", per_op(host("media", "line_reads")));
    c.put("recovery.scanned_entries", "entries", rec.report.scanned as f64);
    c.put("recovery.rolled_back", "entries", rec.report.rolled_back as f64);
    c.put(
        "recovery.ns_per_scanned_entry",
        "ns/entry",
        ratio(rec.open_s * 1e9, rec.report.scanned as f64),
    );
}

/// Writes the kept spans next to the benchmark's sources; returns the
/// file name, or an empty string when writing failed.
fn write_spans(args: &Args, spans: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed);
    let path = dir.join(&name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => format!("out/{name}"),
        Err(e) => {
            eprintln!("paxbench: cannot write {}: {e}", path.display());
            String::new()
        }
    }
}
