//! Per-round CPU rotation.
//!
//! On a shared host one vCPU can sit beside a busy neighbour for minutes
//! while the other runs at full speed: pinned to one CPU, `dynamic-hot`
//! read 130–143 ns per query, pinned to the other at the same time
//! 112–118 ns. A single-thread loop that never blocks stays on the CPU it
//! started on, so whole runs came out slow or fast at random. Pinning the
//! benchmark's thread to the next allowed CPU each round lets every run see
//! every CPU. The pin is lifted around each publish, because the rebuild
//! pool's threads inherit the caller's CPU mask and must be free to use all
//! CPUs, as they are for any other caller.

/// Bytes of glibc's `cpu_set_t` (1024 CPUs).
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

pub struct Cpus {
    /// The mask the process started with.
    all: [u8; MASK_BYTES],
    /// The CPUs in `all`; rotation is off with fewer than two.
    ids: Vec<usize>,
    current: Option<usize>,
}

impl Cpus {
    pub fn new() -> Self {
        let mut all = [0u8; MASK_BYTES];
        // SAFETY: `all` is a writable buffer of exactly `MASK_BYTES` bytes,
        // the size passed; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, MASK_BYTES, all.as_mut_ptr()) } == 0;
        let ids = if ok {
            (0..MASK_BYTES * 8)
                .filter(|&c| all[c / 8] >> (c % 8) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus {
            all,
            ids,
            current: None,
        }
    }

    /// Pins the calling thread to the `round`-th allowed CPU, cyclically.
    pub fn pin_round(&mut self, round: usize) {
        if self.ids.len() >= 2 {
            self.current = Some(self.ids[round % self.ids.len()]);
            self.repin();
        }
    }

    /// Re-applies the round's pin after [`Cpus::unpin`].
    pub fn repin(&self) {
        if let Some(cpu) = self.current {
            let mut mask = [0u8; MASK_BYTES];
            mask[cpu / 8] = 1 << (cpu % 8);
            set(&mask);
        }
    }

    /// Lets the calling thread, and threads it starts, run on every CPU.
    pub fn unpin(&self) {
        if self.current.is_some() {
            set(&self.all);
        }
    }
}

/// A failed call leaves the mask as it was, which costs only the rotation.
fn set(mask: &[u8; MASK_BYTES]) {
    // SAFETY: `mask` is a readable buffer of exactly `MASK_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
}
