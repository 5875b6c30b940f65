//! Scheduling of the benchmark's own threads: idle-class spinners
//! that keep every CPU awake, and a real-time class for the generator.
//!
//! ## Keeping the CPUs awake
//!
//! On a virtual machine a halted vCPU can take milliseconds to wake:
//! on a 2-vCPU virtual machine (Intel Xeon, kernel 6.18), a 25 ms sleep
//! overshot by 0.5–2.6 ms at p90 and 6–20 ms at p99 while the machine
//! was idle, and by 0.12 ms and 0.19 ms with the CPUs kept awake. That
//! wake-up time lands in every latency the program and the generator
//! measure and drifts with the host's other tenants. A thread of the
//! `SCHED_IDLE` class runs only when nothing else wants the CPU and is
//! preempted at once when anything wakes, so the spinners take no time
//! a program thread asks for; they act like disabling deep idle states.
//! Only a thread that yields its slice while it polls (the router's
//! core) can hand a spinner a turn, and routed `burst` reads lower for
//! it (`NOTES.md`). They
//! run in a child process of their own, outside the generator, one
//! pinned to each CPU: left to the load balancer, two could share a
//! CPU and leave the other to halt. They run through every phase: in
//! the busy `hi` phase without them, the generator's own p99 lateness
//! reached 3–6 ms while the host was loaded.
//!
//! ## The generator's class
//!
//! The program's busy-polling threads (the router's yield loop above
//! all) can hold a CPU for a whole time slice when the generator's
//! sender wakes, so it writes late, measured against its own schedule.
//! A generator on its own machine would not wait for them, so the
//! sender and receiver run in the `SCHED_FIFO` class while a phase
//! runs. They use a small share of one CPU.

use std::io::Read;
use std::os::raw::c_int;
use std::process::{Child, Command, Stdio};

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

extern "C" {
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Scheduling classes on Linux.
const SCHED_OTHER: c_int = 0;
const SCHED_FIFO: c_int = 1;
const SCHED_IDLE: c_int = 5;

/// Puts the calling thread in `policy` at `priority`; false if the
/// kernel refused.
fn set_class(policy: c_int, priority: c_int) -> bool {
    let param = SchedParam {
        sched_priority: priority,
    };
    // SAFETY: `param` is a live sched_param for the whole call; pid 0
    // names the calling thread only.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

/// Runs `f` with the calling thread in the real-time class (when the
/// kernel allows it), then returns the thread to the normal class.
pub fn realtime<T>(f: impl FnOnce() -> T) -> T {
    let raised = set_class(SCHED_FIFO, 10);
    let out = f();
    if raised {
        set_class(SCHED_OTHER, 0);
    }
    out
}

/// Pins the calling thread to CPU `cpu` (below 64); false if the
/// kernel refused.
fn pin_to(cpu: usize) -> bool {
    let mask: u64 = 1 << cpu;
    // SAFETY: the mask is a live u64 of the size passed; pid 0 names
    // the calling thread only.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The child's entry point: one idle-class spinner on each CPU until
/// the parent closes stdin (or dies). Pinned, so that no CPU is left
/// to halt while the load balancer has two spinners on one.
pub fn spin_until_stdin_closes() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    for cpu in 0..cpus.min(64) {
        std::thread::spawn(move || {
            pin_to(cpu);
            if !set_class(SCHED_IDLE, 0) {
                // Never spin at normal priority: that would take CPU
                // from the program.
                return;
            }
            // Yielding, not just spinning: a program thread that
            // yields its slice while it polls (the router's core does)
            // gets the CPU straight back instead of waiting out a
            // scheduler tick behind the spinner.
            loop {
                std::thread::yield_now();
            }
        });
    }
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
}

/// The running spinner process; stopped on drop.
pub struct KeepAwake(Child);

impl KeepAwake {
    /// Starts `exe --keep-awake`.
    pub fn start(exe: &std::path::Path) -> Result<Self, String> {
        Command::new(exe)
            .arg("--keep-awake")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map(KeepAwake)
            .map_err(|e| format!("starting the keep-awake process: {e}"))
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        drop(self.0.stdin.take());
        let _ = self.0.wait();
    }
}
