//! The benchmark command (see the library docs and `BENCHMARK.json`).

use std::process::ExitCode;

use paxbench::cli;
use paxbench::run::Settings;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paxbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    match paxbench::run(&args, &Settings::standard(args.seconds)) {
        Ok(outcome) => {
            println!("{}", outcome.report.render());
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("paxbench: correctness check failed ({} failed)", outcome.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("paxbench: {e}");
            ExitCode::FAILURE
        }
    }
}
