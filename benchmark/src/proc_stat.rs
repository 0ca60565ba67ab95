//! What the kernel says about this process: memory high-water mark,
//! resident set and CPU time, read from `/proc/self`.

/// A field of `/proc/self/status` in kB (0 if unreadable).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`), MB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set (`VmRSS`), kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// `(user, system)` CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after the
    // closing parenthesis (utime and stime are the 12th and 13th).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime / 100.0, stime / 100.0)
}
