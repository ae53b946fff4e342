//! Idle-wake suppression for the sandbox the benchmark runs in.
//!
//! The sandbox is a small VM without a cpuidle driver: an idle vCPU
//! halts, the host deschedules it, and waking it for the next request
//! costs tens of µs — an amount that comes and goes with the host's
//! load for minutes at a time. A closed loop with one client hands work
//! back and forth between two threads that are each idle half the time,
//! so on `point_reads_1c` that latency alone moved `ops_per_s` between
//! 7 000 and 18 000 from one run to the next, on the same binary.
//!
//! While a [`KeepAwake`] is alive, one thread per core *that the
//! workload's closed loop leaves idle* (`nproc` − closed-loop clients)
//! calls `yield_now` in a loop. It gives its core up on every
//! iteration, so it only uses time nothing else wants, and the vCPU
//! never halts. With it the same workload repeats within a few percent.
//! Workloads whose clients already keep every core busy get none.
//!
//! (Measured alternatives, all less steady: no spinner; `SCHED_IDLE`
//! spinners set up through `chrt`; one spinner on every core, which
//! took a core from `match_mix_2c` in one run out of three.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The running yielders; [`stop`](KeepAwake::stop) them when done.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Keep `cores` cores awake.
    pub fn start(cores: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes nothing but itself.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }

    /// Stop and join the yielders.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads {
            t.join().expect("keep-awake thread");
        }
    }
}
