//! T-bw: the §5.1 bandwidth and bottleneck analysis.
//!
//! "CXL-enabled accelerators could support up to 63 GB/s … a single CPU
//! socket with an Optane DC PM DIMM per memory channel peaks at about
//! 40 GB/s of read bandwidth and 14 GB/s for writes … Overall, we expect
//! that I/O bus bandwidth will not be a primary bottleneck in PAX.
//! (But) the CVU9P FPGA that runs PAX is clocked at 300 MHz … we expect
//! this will still be a bottleneck."
//!
//! Run: `cargo run --release -p pax-bench --bin bandwidth` (add `--json`
//! for machine-readable output)

use pax_bench::{BenchOut, Json};
use pax_cxl::link::OfferedLoad;
use pax_cxl::{LinkModel, Resource};
use pax_pm::BandwidthProfile;

const SCENARIOS: [(&str, f64, f64, f64); 3] = [
    ("read-heavy", 100e6, 5e6, 5e6),
    ("mixed", 100e6, 50e6, 50e6),
    ("write-heavy", 20e6, 150e6, 150e6),
];

fn report(
    out: &mut BenchOut,
    model: &LinkModel,
    device: &str,
    name: &str,
    load: &OfferedLoad,
    rows: &mut Vec<Vec<String>>,
) {
    let r = model.analyze(load);
    let (binding, u) = r.binding();
    rows.push(vec![
        name.to_string(),
        format!("{:.0}M", load.read_misses_per_sec / 1e6),
        format!("{:.0}M", load.rdown_per_sec / 1e6),
        format!("{:.1}%", r.of(Resource::LinkD2H) * 100.0),
        format!("{:.1}%", r.of(Resource::PmRead) * 100.0),
        format!("{:.1}%", r.of(Resource::PmWrite) * 100.0),
        format!("{:.1}%", r.of(Resource::DeviceMsgRate) * 100.0),
        format!("{} ({:.0}%)", binding.label(), u * 100.0),
    ]);
    out.push_result(
        Json::obj()
            .field("device", Json::str(device))
            .field("scenario", Json::str(name))
            .field("read_misses_per_sec", Json::F64(load.read_misses_per_sec))
            .field("rdown_per_sec", Json::F64(load.rdown_per_sec))
            .field("dirty_evicts_per_sec", Json::F64(load.dirty_evicts_per_sec))
            .field("report", r.to_json()),
    );
}

fn main() {
    pax_bench::accept_args(&["--json"], &[]);
    let mut out = BenchOut::from_args("bandwidth");
    out.config("hbm_hit_rate", Json::F64(0.5));
    out.line("§5.1 bottleneck analysis — resource utilisation under offered load\n");
    let header = vec![
        "scenario".to_string(),
        "misses/s".to_string(),
        "RdOwn/s".to_string(),
        "link D2H".to_string(),
        "PM read".to_string(),
        "PM write".to_string(),
        "device".to_string(),
        "binding".to_string(),
    ];

    let fpga = LinkModel::new(BandwidthProfile::paper());
    let mut rows = vec![header.clone()];
    for (name, misses, rdown, evicts) in SCENARIOS {
        report(
            &mut out,
            &fpga,
            "fpga_300mhz",
            name,
            &OfferedLoad {
                read_misses_per_sec: misses,
                rdown_per_sec: rdown,
                dirty_evicts_per_sec: evicts,
                hbm_hit_rate: 0.5,
            },
            &mut rows,
        );
    }
    out.line("300 MHz FPGA device (the Enzian prototype):");
    out.table(&rows);

    let asic = LinkModel::new(BandwidthProfile {
        device_clock_hz: 2.0e9,
        device_msgs_per_cycle: 1.0,
        ..BandwidthProfile::paper()
    });
    let mut rows = vec![header];
    for (name, misses, rdown, evicts) in SCENARIOS {
        report(
            &mut out,
            &asic,
            "asic_2ghz",
            name,
            &OfferedLoad {
                read_misses_per_sec: misses,
                rdown_per_sec: rdown,
                dirty_evicts_per_sec: evicts,
                hbm_hit_rate: 0.5,
            },
            &mut rows,
        );
    }
    out.line("\nASIC-class device (2 GHz, §5.1 \"designs … that include ASICs\"):");
    out.table(&rows);

    let b = BandwidthProfile::paper();
    out.blank();
    out.line(format!(
        "link supports {:.0}M line transfers/s vs device {:.0}M msgs/s:",
        b.cxl_lines_per_sec() / 1e6,
        b.device_msgs_per_sec() / 1e6
    ));
    out.line("the I/O bus is not the primary bottleneck (§5.1); the FPGA message rate is,");
    out.line("and with an ASIC the binding resource shifts to PM write bandwidth.");
    out.finish();
}
