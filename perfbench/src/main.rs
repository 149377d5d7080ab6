//! `perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]`: runs
//! one workload and prints its metrics; the last line of standard output is
//! the JSON result.

use perfbench::run::{self, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", run::USAGE);
            std::process::exit(2);
        }
    };
    run::arm_watchdog();
    match run::run(&config) {
        Ok(report) => print!("{}", report.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
