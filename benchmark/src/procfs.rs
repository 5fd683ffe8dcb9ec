//! Per-thread CPU time, thread names and peak memory from `/proc`.
//!
//! CPU time comes from `schedstat` (nanoseconds on the CPU, updated at
//! every tick and context switch), not from `stat` (10 ms jiffies).

use std::fs;

use crate::alloc::{self, AllocCount};

/// Which part of the process a thread belongs to, decided once from
/// its name: the product names its threads `totem-udp-<net>` (UDP
/// readers) and `totem-<node>` (runtime drivers); everything else is
/// the benchmark's own load generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// `totem-udp-*`: the transport's reader threads.
    Transport,
    /// `totem-*`: the runtime's driver threads.
    Driver,
    /// The benchmark itself (submitter, collector, main).
    Generator,
}

impl ThreadClass {
    /// Classifies a thread name (`/proc/.../comm`, at most 15 bytes).
    pub fn of(name: &str) -> ThreadClass {
        if name.starts_with("totem-udp-") {
            ThreadClass::Transport
        } else if name.starts_with("totem-") {
            ThreadClass::Driver
        } else {
            ThreadClass::Generator
        }
    }
}

fn first_field_u64(path: &str) -> Option<u64> {
    fs::read_to_string(path).ok()?.split_whitespace().next()?.parse().ok()
}

/// Nanoseconds the calling thread has spent on a CPU.
pub fn self_cpu_ns() -> u64 {
    first_field_u64("/proc/thread-self/schedstat").unwrap_or(0)
}

/// One sample of every live thread: CPU nanoseconds and allocation
/// totals, each with the class its name puts it in.
#[derive(Debug, Clone, Default)]
pub struct ThreadSample {
    threads: Vec<(i32, ThreadClass, u64, AllocCount)>,
}

impl ThreadSample {
    /// Samples every thread of this process.
    pub fn take() -> ThreadSample {
        let allocs = alloc::per_thread();
        let mut threads = Vec::new();
        let own = fs::read_to_string("/proc/self/comm").unwrap_or_default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else { return ThreadSample::default() };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<i32>().ok()) else {
                continue;
            };
            let base = format!("/proc/self/task/{tid}");
            let Ok(comm) = fs::read_to_string(format!("{base}/comm")) else { continue };
            let Some(cpu) = first_field_u64(&format!("{base}/schedstat")) else { continue };
            let count = allocs.iter().find(|(t, _)| *t == tid).map(|(_, c)| *c).unwrap_or_default();
            // The main thread is named after the executable
            // (`totem-benchmark`) and unnamed threads inherit that
            // name: neither is a product thread.
            let class =
                if comm == own { ThreadClass::Generator } else { ThreadClass::of(comm.trim_end()) };
            threads.push((tid, class, cpu, count));
        }
        ThreadSample { threads }
    }

    /// CPU nanoseconds and allocations spent by the threads of `class`
    /// between `earlier` and `self`, counting only threads alive at
    /// both samples (the measured cluster's threads are).
    pub fn since(&self, earlier: &ThreadSample, class: ThreadClass) -> (u64, AllocCount) {
        let mut cpu = 0u64;
        let mut count = AllocCount::default();
        for (tid, c, ns, a) in &self.threads {
            if *c != class {
                continue;
            }
            if let Some((_, _, ns0, a0)) = earlier.threads.iter().find(|(t, ..)| t == tid) {
                cpu += ns.saturating_sub(*ns0);
                count += a.since(*a0);
            }
        }
        (cpu, count)
    }

    /// How many live threads `class` has.
    pub fn count(&self, class: ThreadClass) -> usize {
        self.threads.iter().filter(|(_, c, ..)| *c == class).count()
    }
}

/// Peak resident set size of the process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_classify_by_prefix() {
        assert_eq!(ThreadClass::of("totem-udp-net0"), ThreadClass::Transport);
        assert_eq!(ThreadClass::of("totem-n2"), ThreadClass::Driver);
        assert_eq!(ThreadClass::of("collector"), ThreadClass::Generator);
    }

    #[test]
    fn own_cpu_time_advances_while_spinning() {
        let t0 = self_cpu_ns();
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(self_cpu_ns() - t0 >= 10_000_000, "30 ms of spinning shows at least 10 ms of CPU");
        assert!(peak_rss_mb() > 0.0);
    }
}
