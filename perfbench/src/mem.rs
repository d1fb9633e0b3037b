//! This process's memory use, from its own `/proc/self/status`.

/// The `field` line of `/proc/self/status` (`VmRSS`, `VmHWM`, ...) in KiB,
/// or 0 where the file or field does not exist.
pub fn status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// KiB to MiB.
pub fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}
