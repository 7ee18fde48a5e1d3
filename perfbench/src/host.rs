//! Where the numbers came from: logical CPUs, CPU model and OS.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line describing the host; warns on stderr when only one CPU is
/// available, since the service and parallel verification then cannot
/// run concurrently and no scaling claim holds.
pub fn describe() -> String {
    let n = nproc();
    if n == 1 {
        eprintln!(
            "perfbench: WARNING: this host exposes a SINGLE hardware thread; \
             worker-pool and parallel-verify numbers show no concurrency"
        );
    }
    format!(
        "host: nproc={n} cpu=\"{}\" os={} arch={}",
        cpu_model(),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}
