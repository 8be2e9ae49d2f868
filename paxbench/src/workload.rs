//! The three workloads, their pool configuration and their inputs.
//!
//! Every input is derived from the seed before timing starts: the preload
//! table, and one pre-generated op stream per client thread. The program
//! under test receives only these generated keys and values.

use libpax::PaxConfig;
use pax_pm::PoolConfig;
use pax_workloads::{KeyDistribution, Op, OpMix, WorkloadSpec};

/// Ops pre-generated per client thread. A run longer than this replays
/// the stream from its start; the model keeps checking every result.
pub const STREAM_OPS: u64 = 1 << 20;

/// A benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Churn over a table larger than the host cache and the HBM.
    KvWrite,
    /// Zipfian read-mostly traffic over a table that fits in HBM.
    KvReadHot,
    /// Two threads, each on its own tenant and core, YCSB-A.
    Tenants2,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::KvWrite, Workload::KvReadHot, Workload::Tenants2];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvWrite => "kv-write",
            Workload::KvReadHot => "kv-read-hot",
            Workload::Tenants2 => "tenants-2",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    pub fn shape(self) -> Shape {
        match self {
            // ~125,000 live keys out of 250,000: 4 MB of 32-byte node
            // frames plus a 0.5 MiB bucket array, more than the 64 KiB
            // host cache and the 4 MiB HBM, so stores keep reaching the
            // device. Churn keeps the table near half full, well below
            // the next rehash at 131,072 keys.
            Workload::KvWrite => Shape {
                threads: 1,
                key_space: 250_000,
                preload_stride: 2,
                mix: OpMix::churn(),
                dist: KeyDistribution::Uniform,
                persist_every: 256,
                data_bytes_per_tenant: 16 << 20,
            },
            // 50,000 keys: ~1.9 MiB of nodes and buckets, inside the HBM
            // but 30x the host cache.
            Workload::KvReadHot => Shape {
                threads: 1,
                key_space: 50_000,
                preload_stride: 1,
                mix: OpMix::ycsb_b(),
                dist: KeyDistribution::Zipfian { theta: 0.99 },
                persist_every: 4096,
                data_bytes_per_tenant: 16 << 20,
            },
            Workload::Tenants2 => Shape {
                threads: 2,
                key_space: 50_000,
                preload_stride: 1,
                mix: OpMix::ycsb_a(),
                dist: KeyDistribution::Uniform,
                persist_every: 512,
                data_bytes_per_tenant: 16 << 20,
            },
        }
    }
}

/// What a workload runs: one client thread per tenant and core.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Client threads; also the tenant and host-core count.
    pub threads: usize,
    /// Keys are drawn from `0..key_space` (per tenant).
    pub key_space: u64,
    /// Every `preload_stride`-th key is loaded before timing.
    pub preload_stride: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Key distribution.
    pub dist: KeyDistribution,
    /// Each client persists its tenant after this many ops.
    pub persist_every: u64,
    /// vPM bytes per tenant.
    pub data_bytes_per_tenant: usize,
}

impl Shape {
    /// The pool configuration; everything not set here is the library
    /// default (64 KiB host cache, 4 MiB HBM, epoch persistency).
    pub fn config(&self) -> PaxConfig {
        PaxConfig::default()
            .with_pool(
                PoolConfig::small()
                    .with_data_bytes(self.data_bytes_per_tenant * self.threads)
                    // Room for the preload's largest rehash in one epoch.
                    .with_log_bytes(16 << 20),
            )
            .with_cores(self.threads)
            .with_tenants(self.threads)
    }

    /// The preloaded `(key, value)` pairs of one tenant's table.
    pub fn preload(&self, seed: u64, thread: usize) -> Vec<(u64, u64)> {
        let salt = mix64(seed ^ mix64(thread as u64 + 1));
        (0..self.key_space)
            .step_by(self.preload_stride as usize)
            .map(|k| (k, mix64(salt ^ k)))
            .collect()
    }

    /// The op stream of client `thread`.
    pub fn ops(&self, seed: u64, thread: usize) -> Vec<Op> {
        WorkloadSpec {
            keys: self.key_space,
            ops: STREAM_OPS,
            dist: self.dist,
            mix: self.mix,
            seed: mix64(seed) ^ thread as u64,
        }
        .ops()
        .collect()
    }

    /// A JSON-ready description of the shape, for the report.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let m = self.mix;
        vec![
            ("threads", self.threads.to_string()),
            ("key_space", self.key_space.to_string()),
            ("preloaded_keys", self.key_space.div_ceil(self.preload_stride).to_string()),
            (
                "mix_read_insert_update_remove",
                format!("{}/{}/{}/{}", m.read_pct, m.insert_pct, m.update_pct, m.remove_pct),
            ),
            ("distribution", format!("{:?}", self.dist)),
            ("persist_every", self.persist_every.to_string()),
            ("data_bytes_per_tenant", self.data_bytes_per_tenant.to_string()),
        ]
    }
}

/// SplitMix64 finalizer: a fixed bijection used to derive values and
/// per-thread seeds from the run seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
