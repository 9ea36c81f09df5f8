//! Spread a run over the CPUs the process may use.
//!
//! On this kind of host each vCPU alternates, independently of the other,
//! between a fast state and one about a third slower (a busy neighbour
//! behind the same physical core), in plateaus of 0.3 s to longer than a
//! whole run. The guest kernel cannot see this, so a lone thread stays where
//! it was first put and can spend a run inside one plateau while the other
//! vCPU is idle and fast. Between segments the harness therefore moves the
//! thread to the next CPU every [`DWELL_S`]: the quiet quartile then finds
//! the quiet segments of whichever CPU had them. The segment after a move
//! starts with a cold L1/L2 and is rarely among the quiet ones.
//!
//! The thread is pinned from the first call on, before anything is built,
//! so the system under test sees one CPU at a time throughout
//! (`available_parallelism()` is 1 and threads it spawns inherit the pin):
//! parallel paths in the crates take their serial fallbacks. The only one on
//! a measured path today is `Lidar::scan` in `rmae_train`'s set-up.

use std::cell::RefCell;
use std::time::Instant;

/// Seconds on one CPU before moving on: several segments, a fraction of a
/// typical plateau.
const DWELL_S: f64 = 0.5;
/// CPUs rotated over, at most: the first few the process may use.
const MAX_CPUS: usize = 4;
/// Words in the CPU mask: 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// CPUs the calling thread may run on (empty when the kernel will not
    /// say).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// Pin the calling thread to `cpu`; `false` when the kernel refuses.
    pub fn pin(cpu: usize) -> bool {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed
        // and the call only reads it; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: usize) -> bool {
        false
    }
}

struct Rotation {
    /// Empty when there is nothing to rotate over.
    cpus: Vec<usize>,
    at: usize,
    since: Instant,
}

thread_local! {
    static ROTATION: RefCell<Rotation> = RefCell::new({
        let mut cpus = sys::allowed();
        cpus.truncate(MAX_CPUS);
        if cpus.len() < 2 || !sys::pin(cpus[0]) {
            cpus.clear();
        }
        Rotation { cpus, at: 0, since: Instant::now() }
    });
}

/// Call between segments: moves this thread to the next CPU once it has
/// spent [`DWELL_S`] on the current one.
pub fn turn() {
    ROTATION.with(|r| {
        let mut r = r.borrow_mut();
        if r.cpus.is_empty() || r.since.elapsed().as_secs_f64() < DWELL_S {
            return;
        }
        let next = (r.at + 1) % r.cpus.len();
        if sys::pin(r.cpus[next]) {
            r.at = next;
        }
        r.since = Instant::now();
    });
}
