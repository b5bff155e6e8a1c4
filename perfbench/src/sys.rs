//! Process and machine facts read from `/proc` and `/sys` (Linux).

use std::process::Command;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/self/stat`
/// (`sysconf(_SC_CLK_TCK)`, 100 on every mainstream Linux configuration).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, threads that have
/// already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers.  `utime` and `stime` are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SECOND
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Number of hardware threads the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(level, size)` of every data or unified cache of CPU 0, as the kernel
/// reports them (`"1024K"` style sizes).
fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size), Some(kind)) = (read("level"), read("size"), read("type"))
        else {
            break;
        };
        if kind.trim() != "Instruction" {
            out.push((level.trim().to_string(), size.trim().to_string()));
        }
    }
    out
}

/// First line of a command's standard output, or `"unavailable"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unavailable".to_string())
}

/// The machine and build facts a result depends on, as one JSON object.
pub fn machine_info(threads: usize) -> String {
    let caches = caches();
    let level =
        |l: &str| caches.iter().filter(|(lv, _)| lv == l).map(|(_, s)| s.clone()).next_back();
    let llc = caches.last().map(|(_, s)| s.clone());
    let quote = |s: Option<String>| s.map_or("null".to_string(), |s| format!("\"{s}\""));
    format!(
        "{{\"nproc\": {}, \"threads\": {}, \"l2\": {}, \"llc\": {}, \"rustc\": \"{}\", \
         \"commit\": \"{}\"}}",
        nproc(),
        threads,
        quote(level("2")),
        quote(llc),
        command_line("rustc", &["--version"]).replace('"', "'"),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}
