//! CPU placement. The process pins itself to one CPU before it spawns
//! anything, so the `Serve` worker and every pool thread inherit the
//! mask: on a small box an un-pinned closed-loop serve run swings by 3×
//! between identical repetitions (each queue push wakes a parked worker,
//! and the cost depends on which vCPU it lands on), while pinned runs
//! repeat within a few percent. Gated numbers therefore measure CPU work
//! per operation, not wake-up luck.
//!
//! `sched_{get,set}affinity` come from the libc that `std` already
//! links on Linux — no new dependency. All `unsafe` in the benchmark is
//! in [`affinity_call`].

/// `cpu_set_t`: 1024 CPUs, one bit each.
type Mask = [u64; 16];

/// Where the process runs: the mask it started with and the CPU it
/// pinned itself to (`None` when pinning failed or is unsupported — the
/// run proceeds un-pinned and says so in its `env` block).
#[derive(Debug, Clone)]
pub struct Placement {
    original: Option<Mask>,
    pinned: Option<usize>,
}

/// Read (`new == None`) or replace the calling thread's affinity mask.
#[cfg(target_os = "linux")]
fn affinity_call(new: Option<&Mask>) -> Option<Mask> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let bytes = std::mem::size_of::<Mask>();
    match new {
        None => {
            let mut mask: Mask = [0; 16];
            // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
            // bytes; pid 0 names the calling thread; the kernel writes at
            // most `cpusetsize` bytes.
            let rc = unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) };
            (rc == 0).then_some(mask)
        }
        Some(mask) => {
            // SAFETY: `mask` points at `bytes` readable bytes that outlive
            // the call; the kernel only reads them.
            let rc = unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) };
            (rc == 0).then_some(*mask)
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn affinity_call(_new: Option<&Mask>) -> Option<Mask> {
    None
}

fn single(cpu: usize) -> Mask {
    let mut mask: Mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

fn cpus_of(mask: &Mask) -> impl Iterator<Item = usize> + '_ {
    (0..mask.len() * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
}

impl Placement {
    /// Pin the calling thread (and everything it spawns afterwards) to
    /// one CPU of its current mask: the highest-numbered one, because
    /// CPU 0 is where a small VM delivers most of its interrupts.
    pub fn pin() -> Placement {
        let original = affinity_call(None);
        let pinned = original
            .as_ref()
            .and_then(|mask| cpus_of(mask).last())
            .filter(|&cpu| affinity_call(Some(&single(cpu))).is_some());
        Placement { original, pinned }
    }

    /// The CPU the process is pinned to, if pinning worked.
    pub fn pinned_cpu(&self) -> Option<usize> {
        self.pinned
    }

    /// CPUs the process was allowed to use when it started.
    pub fn allowed_cpus(&self) -> usize {
        match &self.original {
            Some(mask) => cpus_of(mask).count(),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Run `f` with the original (wide) mask restored, then pin again —
    /// for the one probe that measures parallel speed-up.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        let (Some(original), Some(cpu)) = (&self.original, self.pinned) else {
            return f();
        };
        affinity_call(Some(original));
        let result = f();
        affinity_call(Some(&single(cpu)));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_mask_round_trips() {
        for cpu in [0, 1, 63, 64, 1023] {
            assert_eq!(cpus_of(&single(cpu)).collect::<Vec<_>>(), vec![cpu]);
        }
    }
}
