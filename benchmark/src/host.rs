//! Host facts recorded with every result, so that two result files can be
//! told apart before their numbers are compared.

use crate::workload::ENGINE;
use gcr_cli::report::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, or `unknown` outside a repository.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

pub fn facts(seed: u64) -> Json {
    Json::O(vec![
        ("nproc", Json::U(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64)),
        ("cpu_model", Json::S(cpu_model())),
        ("rustc", Json::S(command_line("rustc", &["-V"]))),
        ("git_rev", Json::S(git_rev())),
        ("engine", Json::S(ENGINE.name().into())),
        ("seed", Json::U(seed)),
        ("client_threads", Json::U(1)),
        ("sweep_threads", Json::U(crate::sweep_run::sweep_threads() as u64)),
        ("server_workers", Json::U(gcr_serve::ServerConfig::default().workers as u64)),
        ("setup_repeats", Json::U(crate::e2e::SETUP_REPEATS as u64)),
        ("passes_per_cycle", Json::U(crate::workload::JITTER)),
    ])
}
