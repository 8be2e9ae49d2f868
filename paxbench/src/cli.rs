//! Command-line parsing. Unknown flags and malformed values are errors.

use crate::workload::Workload;

/// Parsed arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Minimum length of the measurement phase.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run and a replay instead
    /// of the end-to-end metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str = "usage: paxbench --workload <kv-write|kv-read-hot|tenants-2> \
[--seed <n>] [--seconds <n>] [--trace <0|1> | --traced]";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message for an unknown flag, a missing or malformed value,
/// or a missing `--workload`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            trace = true;
            continue;
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => {
                seconds = number()?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn accepts_both_trace_flag_forms() {
        let a = args("--workload kv-write --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a, Args { workload: Workload::KvWrite, seed: 7, seconds: 3, trace: true });
        let b = args("--traced --workload tenants-2").unwrap();
        assert_eq!(b.workload, Workload::Tenants2);
        assert!(b.trace);
        assert_eq!((b.seed, b.seconds), (1, 10));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload kv-write --json",
            "--workload nope",
            "--workload kv-write --seed",
            "--workload kv-write --seed x",
            "--workload kv-write --trace 2",
            "--workload kv-write --seconds 0",
            "--seed 3",
            "kv-write",
        ] {
            assert!(args(bad).is_err(), "{bad} must be rejected");
        }
    }
}
