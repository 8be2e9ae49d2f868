//! Running one workload: set-up, the closed-loop measurement phase, crash
//! recovery, and the replay.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use libpax::{BitmapAlloc, MemSpace, PHashMap, PaxConfig, PaxPool, PmAllocator, VPm};
use pax_device::RecoveryReport;
use pax_telemetry::{MetricSnapshot, TelemetrySnapshot};
use pax_workloads::Op;

use crate::latency::LatencyLog;
use crate::model::Model;
use crate::replay::{self, Machine, ReplaySpace, ReplayStats};
use crate::trace::{self, Layer, Recorder, TracedAlloc, TracedSpace};
use crate::workload::Shape;

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Minimum wall seconds of the measurement phase.
    pub seconds: f64,
    /// Set-ups timed; the last one is measured.
    pub setups: usize,
    /// Crash-recovery cycles after the measurement phase.
    pub recoveries: usize,
    /// Minimum persist samples, summed over threads, so that the p99 has
    /// at least ten samples beyond it.
    pub min_persists: u64,
    /// Single-thread runs take the counter-derived end-to-end metrics
    /// over the first `window_ops` ops of the phase, a fixed stretch of
    /// the seed's stream, so they repeat exactly for a seed.
    pub window_ops: u64,
    /// Root spans per thread kept for the span file.
    pub keep_spans: u64,
}

impl Settings {
    /// The settings the benchmark command uses.
    pub fn standard(seconds: u64) -> Self {
        Settings {
            seconds: seconds as f64,
            setups: 5,
            recoveries: 7,
            min_persists: 1000,
            window_ops: 1 << 18,
            keep_spans: 2000,
        }
    }
}

/// Everything generated from the seed before timing starts.
#[derive(Debug)]
pub struct Inputs {
    /// Preloaded `(key, value)` pairs per tenant.
    pub preload: Vec<Vec<(u64, u64)>>,
    /// Op stream per client thread.
    pub ops: Vec<Arc<Vec<Op>>>,
}

impl Inputs {
    /// Generates the inputs of `shape` for `seed`.
    pub fn generate(shape: &Shape, seed: u64) -> Self {
        Inputs {
            preload: (0..shape.threads).map(|t| shape.preload(seed, t)).collect(),
            ops: (0..shape.threads).map(|t| Arc::new(shape.ops(seed, t))).collect(),
        }
    }
}

/// The preload persists after this many inserts, so its undo log stays
/// within the log region.
const PRELOAD_PERSIST_EVERY: usize = 8192;

type PersistFn = Box<dyn Fn() -> libpax::Result<u64> + Send>;

/// One client: its tenant's map, the allocator under it, its op stream
/// and the model its results are checked against.
pub struct Client<S: MemSpace, A: PmAllocator<S>> {
    map: PHashMap<u64, u64, S, A>,
    alloc: A,
    persist: PersistFn,
    ops: Arc<Vec<Op>>,
    cursor: usize,
    /// The expected table.
    pub model: Model,
    traced: bool,
}

impl<S: MemSpace, A: PmAllocator<S>> Client<S, A> {
    /// Runs the next op; returns its latency and whether it returned the
    /// model's result. The model is updated outside the timed span.
    fn step(&mut self) -> (u64, bool) {
        let op = self.ops[self.cursor % self.ops.len()];
        self.cursor += 1;
        let t = Instant::now();
        let got = {
            let _g = self.traced.then(|| trace::span(Layer::Op));
            match op {
                Op::Get(k) => self.map.get(k),
                Op::Insert(k, v) | Op::Update(k, v) => self.map.insert(k, v),
                Op::Remove(k) => self.map.remove(k),
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        let ok = match got {
            Ok(v) => v == self.model.apply(op),
            Err(_) => false,
        };
        (ns, ok)
    }

    /// Persists the client's tenant; returns the latency and success.
    fn persist(&mut self) -> (u64, bool) {
        let t = Instant::now();
        let r = {
            let _g = self.traced.then(|| trace::span(Layer::Persist));
            (self.persist)()
        };
        let ns = t.elapsed().as_nanos() as u64;
        if r.is_ok() {
            self.model.commit();
        }
        (ns, r.is_ok())
    }

    /// Table entries that differ from the model.
    fn mismatches(&self) -> u64 {
        match self.map.entries() {
            Ok(entries) => self.model.mismatches(entries),
            Err(_) => 1,
        }
    }
}

/// The allocator and space types a pool run drives the map through.
pub trait Stack {
    /// The space the map and allocator use.
    type S: MemSpace + Send + 'static;
    /// The allocator the map uses.
    type A: PmAllocator<Self::S> + Send + 'static;
    /// Whether ops record spans.
    const TRACED: bool;
    /// Formats or recovers the allocator over a vPM window.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    fn attach(vpm: VPm) -> libpax::Result<Self::A>;
    /// The allocator's counters.
    fn alloc_metrics(a: &Self::A) -> MetricSnapshot;
}

/// The plain stack: `PHashMap` over `BitmapAlloc` over `VPm`.
pub struct Plain;

impl Stack for Plain {
    type S = VPm;
    type A = BitmapAlloc<VPm>;
    const TRACED: bool = false;

    fn attach(vpm: VPm) -> libpax::Result<Self::A> {
        BitmapAlloc::attach(vpm)
    }

    fn alloc_metrics(a: &Self::A) -> MetricSnapshot {
        a.metrics_snapshot()
    }
}

/// The plain stack with span-recording wrappers at both seams.
pub struct Traced;

impl Stack for Traced {
    type S = TracedSpace<VPm>;
    type A = TracedAlloc<BitmapAlloc<TracedSpace<VPm>>>;
    const TRACED: bool = true;

    fn attach(vpm: VPm) -> libpax::Result<Self::A> {
        Ok(TracedAlloc(BitmapAlloc::attach(TracedSpace(vpm))?))
    }

    fn alloc_metrics(a: &Self::A) -> MetricSnapshot {
        a.0.metrics_snapshot()
    }
}

/// When a client stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After `seconds` of wall time, `min_epochs` epochs, and the
    /// deterministic window, whichever comes last.
    Timed { seconds: f64, min_epochs: u64 },
    /// After exactly this many epochs (the replay).
    Epochs(u64),
}

/// What one client thread measured.
struct ThreadOut {
    ops: u64,
    epochs: u64,
    failed: u64,
    op_ns: LatencyLog,
    persist_ns: LatencyLog,
    start: Instant,
    end: Instant,
    window: Option<TelemetrySnapshot>,
    recorder: Option<Recorder>,
    replay: ReplayStats,
}

/// The closed loop of one client: each op is issued after the previous
/// one returned, and every `persist_every` ops the tenant persists.
fn drive<S: MemSpace, A: PmAllocator<S>>(
    c: &mut Client<S, A>,
    persist_every: u64,
    stop: Stop,
    window: Option<(u64, &PaxPool)>,
    start: Instant,
) -> ThreadOut {
    let mut out = ThreadOut {
        ops: 0,
        epochs: 0,
        failed: 0,
        op_ns: LatencyLog::default(),
        persist_ns: LatencyLog::default(),
        start,
        end: start,
        window: None,
        recorder: None,
        replay: ReplayStats::default(),
    };
    loop {
        for _ in 0..persist_every {
            let (ns, ok) = c.step();
            out.op_ns.record(ns);
            out.failed += u64::from(!ok);
        }
        out.ops += persist_every;
        let (ns, ok) = c.persist();
        out.persist_ns.record(ns);
        out.failed += u64::from(!ok);
        out.epochs += 1;
        if let Some((epochs, pool)) = window {
            if out.epochs == epochs {
                out.window = Some(pool.telemetry());
            }
        }
        let done = match stop {
            Stop::Timed { seconds, min_epochs } => {
                out.epochs >= min_epochs && start.elapsed().as_secs_f64() >= seconds
            }
            Stop::Epochs(n) => out.epochs >= n,
        };
        if done {
            break;
        }
    }
    out.end = Instant::now();
    out
}

/// A measured phase, all threads together.
pub struct Phase {
    /// Ops completed.
    pub ops: u64,
    /// Epochs per thread.
    pub epochs: Vec<u64>,
    /// Ops or persists that failed or returned a wrong result.
    pub failed: u64,
    /// Op latencies.
    pub op_ns: LatencyLog,
    /// Persist latencies.
    pub persist_ns: LatencyLog,
    /// First thread start to last thread end.
    pub wall_s: f64,
    /// Merged span totals (traced runs).
    pub recorder: Option<Recorder>,
    /// Merged replay timers (replays).
    pub replay: ReplayStats,
    /// Telemetry at the end of the window (single-thread timed runs).
    pub window: Option<TelemetrySnapshot>,
}

fn run_threads<S, A>(
    clients: Vec<(Client<S, A>, Stop)>,
    persist_every: u64,
    window: Option<(u64, &PaxPool)>,
    keep_spans: Option<u64>,
) -> (Vec<Client<S, A>>, Phase)
where
    S: MemSpace + Send,
    A: PmAllocator<S> + Send,
{
    let n = clients.len();
    let barrier = Barrier::new(n);
    let origin = Instant::now();
    let results: Vec<(Client<S, A>, ThreadOut)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, (mut c, stop))| {
                let barrier = &barrier;
                s.spawn(move || {
                    if let Some(keep) = keep_spans {
                        trace::install(i, origin, keep);
                    }
                    replay::take_stats();
                    barrier.wait();
                    let mut out = drive(&mut c, persist_every, stop, window, Instant::now());
                    out.recorder = trace::take();
                    out.replay = replay::take_stats();
                    (c, out)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let start = results.iter().map(|(_, o)| o.start).min().expect("at least one client");
    let end = results.iter().map(|(_, o)| o.end).max().expect("at least one client");
    let mut phase = Phase {
        ops: 0,
        epochs: Vec::new(),
        failed: 0,
        op_ns: LatencyLog::default(),
        persist_ns: LatencyLog::default(),
        wall_s: end.duration_since(start).as_secs_f64(),
        recorder: None,
        replay: ReplayStats::default(),
        window: None,
    };
    let mut clients = Vec::with_capacity(n);
    for (c, o) in results {
        phase.ops += o.ops;
        phase.epochs.push(o.epochs);
        phase.failed += o.failed;
        phase.op_ns.absorb(&o.op_ns);
        phase.persist_ns.absorb(&o.persist_ns);
        phase.replay.absorb(&o.replay);
        phase.window = phase.window.or(o.window);
        match (&mut phase.recorder, o.recorder) {
            (Some(acc), Some(r)) => acc.absorb(&r),
            (acc @ None, r) => *acc = r,
            _ => {}
        }
        clients.push(c);
    }
    (clients, phase)
}

/// A set-up pool with its clients.
pub struct PoolRun<K: Stack> {
    /// The pool.
    pub pool: PaxPool,
    /// One client per tenant.
    pub clients: Vec<Client<K::S, K::A>>,
    config: PaxConfig,
    shape: Shape,
}

/// Ops, persists and checks attempted, and how many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Ops, persists and checks attempted.
    pub attempted: u64,
    /// Of which failed or returned a wrong result.
    pub failed: u64,
}

impl Tally {
    /// Adds a measured phase's ops and persists.
    pub fn count(&mut self, p: &Phase) {
        self.attempted += p.ops + p.epochs.iter().sum::<u64>();
        self.failed += p.failed;
    }
}

fn attach_client<K: Stack>(
    pool: &PaxPool,
    t: usize,
    ops: Arc<Vec<Op>>,
    model: Model,
) -> libpax::Result<Client<K::S, K::A>> {
    let tenant = pool.attach(t)?;
    let alloc = K::attach(tenant.vpm_for_core(t))?;
    let map = PHashMap::attach(alloc.clone())?;
    Ok(Client {
        map,
        alloc,
        persist: Box::new(move || tenant.persist()),
        ops,
        cursor: 0,
        model,
        traced: K::TRACED,
    })
}

/// Pool create + preload + first persist, timed. Returns the run and
/// the seconds it took.
///
/// # Errors
///
/// Propagates pool, allocator and map errors.
pub fn setup<K: Stack>(
    shape: &Shape,
    inputs: &Inputs,
    tally: &mut Tally,
) -> libpax::Result<(PoolRun<K>, f64)> {
    let config = shape.config();
    let t = Instant::now();
    let pool = PaxPool::create(config)?;
    let mut loaded = Vec::with_capacity(shape.threads);
    for (i, preload) in inputs.preload.iter().enumerate() {
        let tenant = pool.attach(i)?;
        let alloc = K::attach(tenant.vpm_for_core(i))?;
        let map: PHashMap<u64, u64, K::S, K::A> = PHashMap::attach(alloc.clone())?;
        for chunk in preload.chunks(PRELOAD_PERSIST_EVERY) {
            for &(k, v) in chunk {
                tally.attempted += 1;
                tally.failed += u64::from(map.insert(k, v)?.is_some());
            }
            tenant.persist()?;
        }
        loaded.push((tenant, alloc, map));
    }
    let secs = t.elapsed().as_secs_f64();
    let clients = loaded
        .into_iter()
        .enumerate()
        .map(|(i, (tenant, alloc, map))| Client {
            map,
            alloc,
            persist: Box::new(move || tenant.persist()) as PersistFn,
            ops: Arc::clone(&inputs.ops[i]),
            cursor: 0,
            model: Model::with_entries(&inputs.preload[i]),
            traced: K::TRACED,
        })
        .collect();
    Ok((PoolRun { pool, clients, config, shape: *shape }, secs))
}

/// Counters around a pool phase.
pub struct PoolPhase {
    /// The phase itself.
    pub phase: Phase,
    /// Telemetry when the phase started.
    pub start: TelemetrySnapshot,
    /// Telemetry when the phase ended.
    pub end: TelemetrySnapshot,
    /// Allocator counters per tenant at start and end.
    pub alloc: Vec<(MetricSnapshot, MetricSnapshot)>,
}

/// One crash-recovery cycle's measurements.
pub struct RecoverySample {
    /// `crash()` through verification, seconds.
    pub total_s: f64,
    /// `PaxPool::open` alone, seconds.
    pub open_s: f64,
    /// Recovered entries that differ from the model.
    pub mismatches: u64,
    /// What recovery reported.
    pub report: RecoveryReport,
    /// The cycle's `recovery` span and its descendants (traced stacks).
    pub spans: Option<Recorder>,
}

impl<K: Stack> PoolRun<K> {
    /// The timed closed-loop phase.
    pub fn measure(&mut self, settings: &Settings) -> PoolPhase {
        let every = self.shape.persist_every;
        let threads = self.shape.threads as u64;
        let window_epochs = settings.window_ops.div_ceil(every);
        let min_epochs = settings.min_persists.div_ceil(threads).max(window_epochs);
        let window = (threads == 1).then_some((window_epochs, &self.pool));
        let start = self.pool.telemetry();
        let alloc_start: Vec<_> = self.clients.iter().map(|c| K::alloc_metrics(&c.alloc)).collect();
        let keep = K::TRACED.then_some(settings.keep_spans);
        let stop = Stop::Timed { seconds: settings.seconds, min_epochs };
        let clients = std::mem::take(&mut self.clients).into_iter().map(|c| (c, stop)).collect();
        let (clients, phase) = run_threads(clients, every, window, keep);
        self.clients = clients;
        let end = self.pool.telemetry();
        let alloc = alloc_start
            .into_iter()
            .zip(&self.clients)
            .map(|(s, c)| (s, K::alloc_metrics(&c.alloc)))
            .collect();
        PoolPhase { phase, start, end, alloc }
    }

    /// Crash-recovery cycles (at least one): each leaves one epoch open
    /// (one op short of a persist, on every tenant), cuts power, reopens
    /// the pool, re-attaches allocators and maps, and checks that every
    /// table equals its model as of the last committed persist.
    ///
    /// # Errors
    ///
    /// Propagates crash, recovery and attach errors.
    pub fn recover(
        &mut self,
        cycles: usize,
        tally: &mut Tally,
    ) -> libpax::Result<Vec<RecoverySample>> {
        let mut samples = Vec::with_capacity(cycles);
        for _ in 0..cycles.max(1) {
            for c in &mut self.clients {
                for _ in 1..self.shape.persist_every {
                    let (_, ok) = c.step();
                    tally.attempted += 1;
                    tally.failed += u64::from(!ok);
                }
                c.model.rollback();
            }
            if K::TRACED {
                trace::install(self.shape.threads, Instant::now(), 1);
            }
            let span = trace::span(Layer::Recovery);
            let t = Instant::now();
            let pm = self.pool.crash()?;
            let t_open = Instant::now();
            let pool = PaxPool::open(pm, self.config)?;
            let open_s = t_open.elapsed().as_secs_f64();
            let report = pool.recovery_report()?;
            let old = std::mem::take(&mut self.clients);
            let mut mismatches = 0;
            for (i, c) in old.into_iter().enumerate() {
                let mut fresh = attach_client::<K>(&pool, i, c.ops, c.model)?;
                fresh.cursor = c.cursor;
                mismatches += fresh.mismatches();
                self.clients.push(fresh);
            }
            let total_s = t.elapsed().as_secs_f64();
            drop(span);
            let spans = trace::take();
            tally.attempted += self.clients.len() as u64;
            tally.failed += mismatches;
            self.pool = pool;
            samples.push(RecoverySample { total_s, open_s, mismatches, report, spans });
        }
        Ok(samples)
    }
}

/// The replay of a traced phase.
pub struct ReplayRun {
    /// The replayed phase (its `replay` field holds the timers).
    pub phase: Phase,
    /// Device counters at the end, set-up included.
    pub device: MetricSnapshot,
    /// Media counters at the end, set-up included.
    pub media: MetricSnapshot,
    /// `PaxDevice::lane_lock_acquisitions` over the phase.
    pub lane_locks: u64,
}

/// Replays the set-up and `epochs[t]` epochs of each client's stream
/// through [`Machine`].
///
/// # Errors
///
/// Propagates pool, allocator and map errors.
pub fn replay(
    shape: &Shape,
    inputs: &Inputs,
    epochs: &[u64],
    tally: &mut Tally,
) -> libpax::Result<ReplayRun> {
    let m = Machine::create(&shape.config())?;
    let mut clients: Vec<Client<ReplaySpace, BitmapAlloc<ReplaySpace>>> = Vec::new();
    for (i, preload) in inputs.preload.iter().enumerate() {
        let alloc = BitmapAlloc::attach(m.space(i, i))?;
        let map = PHashMap::attach(alloc.clone())?;
        for chunk in preload.chunks(PRELOAD_PERSIST_EVERY) {
            for &(k, v) in chunk {
                tally.attempted += 1;
                tally.failed += u64::from(map.insert(k, v)?.is_some());
            }
            m.persist(i)?;
        }
        let machine = Arc::clone(&m);
        clients.push(Client {
            map,
            alloc,
            persist: Box::new(move || machine.persist(i)),
            ops: Arc::clone(&inputs.ops[i]),
            cursor: 0,
            model: Model::with_entries(preload),
            traced: false,
        });
    }
    let dev = m.device();
    let locks = dev.lane_lock_acquisitions();
    let clients = clients.into_iter().zip(epochs).map(|(c, &e)| (c, Stop::Epochs(e))).collect();
    let (_, phase) = run_threads(clients, shape.persist_every, None, None);
    Ok(ReplayRun {
        phase,
        device: dev.metric_snapshot(),
        media: dev.media_metrics(),
        lane_locks: dev.lane_lock_acquisitions() - locks,
    })
}
