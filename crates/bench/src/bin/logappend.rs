//! Same-lane undo-bank append contention microbench.
//!
//! N OS threads append entries into ONE undo bank — the worst case the
//! lock-free CAS engine exists for: every store on a lane appends to that
//! lane's bank. The bench times the append path alone (reserve + fill +
//! publish; no pump, no media — the bank is volatile until drained):
//! threads share one `UndoLog` and append with `&self` through the
//! packed-tail CAS reserve, slot fill and ready-bit publish path. The
//! series is reported as mode `cas`.
//!
//! The CI ratchet enforces the point: on a ≥4-core host the CAS engine's
//! 1→4-thread scaling must clear a bar a mutex-serialized append could
//! not.
//!
//! Run: `cargo run --release -p pax-bench --bin logappend` (add `--json`
//! for machine-readable output; `--threads 1,2,4` and `--ops N` to
//! resize).

use std::time::Instant;

use pax_bench::{arg_value, thread_series, BenchOut, Json};
use pax_device::{UndoEntry, UndoLog};
use pax_pm::{CacheLine, LineAddr};

/// One timed same-bank append storm; returns wall-clock Mops.
fn measure(threads: usize, ops_per_thread: u64) -> f64 {
    let log = UndoLog::with_region(0, threads as u64 * ops_per_thread + 1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = &log;
            s.spawn(move || {
                for i in 0..ops_per_thread {
                    let line = LineAddr(t as u64 * ops_per_thread + i);
                    log.append(UndoEntry::single(1, line, CacheLine::zeroed()))
                        .expect("capacity sized to fit");
                }
            });
        }
    });
    (threads as u64 * ops_per_thread) as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn main() {
    pax_bench::accept_args(&["--json"], &["--threads", "--ops"]);
    let mut out = BenchOut::from_args("logappend");
    let threads = thread_series(&[1, 2, 4]);
    let ops: u64 = arg_value("--ops").map_or(200_000, |v| v.parse().expect("bad --ops"));
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.config("ops_per_thread", Json::U64(ops));
    out.config("host_cores", Json::U64(host_cores as u64));

    out.line(format!("\nSame-lane undo append [Mops] — lock-free CAS bank, {ops} ops/thread"));
    let mut rows = vec![vec!["threads".to_string(), "cas".to_string(), "vs 1".to_string()]];
    let mut base = None;
    for &t in &threads {
        eprintln!("measuring {t} thread(s) …");
        let mops = measure(t, ops);
        let scaling = mops / *base.get_or_insert(mops);
        rows.push(vec![t.to_string(), format!("{mops:.2}"), format!("{scaling:.2}×")]);
        out.push_result(
            Json::obj()
                .field("threads", Json::U64(t as u64))
                .field("mode", Json::str("cas"))
                .field("mops", Json::F64(mops))
                .field("scaling_vs_1", Json::F64(scaling)),
        );
    }
    out.table(&rows);
    out.finish();
}
