//! Program CPU time and peak memory read from `/proc`, outside the
//! program.

use std::os::raw::{c_int, c_long};

extern "C" {
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

/// Clock ticks per second that `/proc/<pid>/stat` counts CPU time in.
pub fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes a plain integer, touches no caller memory
    // and returns -1 for an unknown name.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// User plus system CPU ticks of all threads of a process, from the
/// text of `/proc/<pid>/stat`. The command name (field 2) sits in
/// parentheses and may itself hold spaces or parentheses, so fields
/// are counted from the last `)`: `utime` and `stime` are fields 14
/// and 15 of the line.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // The first field after the name is field 3 (`state`).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Nanoseconds a thread has run on a CPU, the first field of
/// `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds a live process has used so far: the sum over its
/// threads of `schedstat`, exact to the nanosecond, or the clock ticks
/// of `/proc/<pid>/stat` where the kernel keeps no `schedstat`. Ticks
/// are 10 ms: over a one-second slice at a few percent of a core they
/// would read in steps of a fifth of the figure.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let threads_ns = std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()
        .and_then(|tasks| {
            tasks
                .map(|t| {
                    let path = t.ok()?.path().join("schedstat");
                    parse_schedstat_ns(&std::fs::read_to_string(path).ok()?)
                })
                .sum::<Option<u64>>()
        });
    if let Some(ns) = threads_ns.filter(|&ns| ns > 0) {
        return Some(ns as f64 / 1e9);
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / clock_ticks_per_s())
}

/// The `VmHWM` (peak resident set) of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Peak resident set of a live process, kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let line = "4242 (pmc-serve) S 1 4242 4242 0 -1 4194560 812 0 0 0 \
                    1234 567 0 0 20 0 5 0 99 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(1234 + 567));
        // A command name with spaces and a closing paren must not
        // shift the fields.
        let odd = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 10 20 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat_cpu_ticks(odd), Some(30));
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("12 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        let bad = "1 (x) S 1 1 1 0 -1 0 0 0 0 0 ten 20 0";
        assert_eq!(parse_stat_cpu_ticks(bad), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_schedstat_ns("5982635 36329 5\n"), Some(5982635));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn own_cpu_time_grows_with_work() {
        let pid = std::process::id();
        let before = cpu_seconds(pid).unwrap();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = cpu_seconds(pid).unwrap() - before;
        // 50 ms of spinning; nanosecond accounting sees most of it.
        assert!(used > 0.02, "{used}");
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        assert!(peak_rss_kb(pid).unwrap() > 0);
    }

    #[test]
    fn vm_hwm_line_is_parsed() {
        let status =
            "Name:\tpmc-serve\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
