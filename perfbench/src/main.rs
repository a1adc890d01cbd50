//! Command line: `perfbench --workload <name> [--seed <n>] --seconds <s>
//! [--trace <0|1>] [--tmp-dir <dir>] [--trace-out <file>]`.
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and every metric of the
//! run mode with its unit. Exits 1 when a correctness check failed, 2
//! on a bad command line.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Opts, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <direct|multilevel|service|link-failure> [--seed <n>] \
         --seconds <s> [--trace <0|1>] [--tmp-dir <dir>] [--trace-out <file>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::new(Workload::Direct, 1, 0.0);
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| opts.seconds = v)
                .is_ok_and(|_| opts.seconds > 0.0 && opts.seconds.is_finite()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--tmp-dir" => {
                opts.tmp_dir = PathBuf::from(value);
                true
            }
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(value));
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if opts.seconds == 0.0 {
        return usage("--seconds is required");
    }
    opts.workload = workload;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} parallel feature {} cpus {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if umpa_core::PARALLEL_ENABLED {
            "on"
        } else {
            "off"
        },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let report = run(&opts);
    for why in &report.broken {
        eprintln!("perfbench: check failed: {why}");
    }
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(line) = status.lines().find(|l| l.starts_with("VmHWM")) {
            eprintln!(
                "perfbench: peak memory {}",
                line.trim_start_matches("VmHWM:").trim()
            );
        }
    }
    let defs = opts.metric_defs();
    println!("{}", report.to_json(defs));
    if report.correct(defs) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
