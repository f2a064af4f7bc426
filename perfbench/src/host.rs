//! Facts about the process and machine a run records.

use std::path::Path;

/// Environment toggles that change what the program does.  A measured run
/// must see the shipped defaults, so none of them may be set.
pub const TOGGLES: [&str; 8] = [
    "PCS_PLAN",
    "PCS_COLUMNAR",
    "PCS_EVAL_INDEX",
    "PCS_EVAL_THREADS",
    "PCS_TELEMETRY",
    "PCS_ANALYZE",
    "PCS_TRACE_JSON",
    "PCS_SLOW_QUERY_MS",
];

/// The toggles set in this process's environment.
pub fn set_toggles() -> Vec<&'static str> {
    TOGGLES
        .iter()
        .copied()
        .filter(|name| std::env::var_os(name).is_some())
        .collect()
}

/// The number of processors the program may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit being measured, as handed over by the launcher script
/// (`unknown` outside a git checkout).
pub fn commit() -> String {
    std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of a process in MiB, read from
/// `/proc/<pid>/status`; `None` where that is unavailable.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(Path::new("/proc").join(pid).join("status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of a file in bytes (`0` when absent).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
