//! Host speed, measured with a fixed reference kernel between operations.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by up
//! to 1.8× over tens of seconds, as other tenants load the same cores.
//! Every run takes its own kernel samples between timed operations, and
//! each end-to-end time is divided by the host's slowness around that
//! operation: the median kernel time within `WINDOW_S` of it over
//! `NOMINAL_KERNEL_MS`. End-to-end times therefore read as milliseconds
//! on a host where the kernel takes `NOMINAL_KERNEL_MS`; the raw times
//! stay in the results file. The kernel is the benchmark's own code, so a
//! change to the dtr crates moves the scaled times as it moves the raw
//! ones.

use crate::stats::median;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on an idle host (a 2-vCPU x86-64 virtual machine): the
/// unit the scaled times are expressed in.
pub const NOMINAL_KERNEL_MS: f64 = 2.0;

/// Kernel samples are taken before an operation once this much time has
/// passed since the last ones, one per period, at most `MAX_REPS` at once.
const PERIOD_S: f64 = 0.1;
const MAX_REPS: usize = 8;

/// Kernel samples within this distance of an operation set its slowness.
const WINDOW_S: f64 = 2.0;

/// Keys the kernel inserts, looks up and sorts, and the slots of its
/// open-addressing table (a power of two, under half full).
const KEYS: usize = 30_000;
const SLOTS: usize = 1 << 16;

/// Entries of the ring the kernel walks (4 MB, past a core's L2 cache),
/// and the steps of one walk.
const RING: usize = 1 << 20;
const STEPS: usize = 12_000;

/// The kernel's buffers, allocated once: the kernel itself allocates
/// nothing, so the program's heap state does not reach its time.
struct Buffers {
    keys: Vec<u64>,
    table: Vec<u64>,
    sorted: Vec<u64>,
    ring: Ring,
}

/// A random cyclic permutation: `next[i]` is the entry after `i`.
struct Ring {
    next: Vec<u32>,
    /// Where the next walk starts, so walks cover the whole ring.
    at: u32,
}

impl Ring {
    /// Sattolo's shuffle of the identity, which leaves one cycle.
    fn new(len: usize, x: &mut u64) -> Ring {
        let mut next: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            next.swap(i, (xorshift(x) % i as u64) as usize);
        }
        Ring { next, at: 0 }
    }

    /// Dependent loads: each waits for the one before.
    fn walk(&mut self, steps: usize) -> u32 {
        let mut i = self.at;
        for _ in 0..steps {
            i = self.next[i as usize];
        }
        self.at = i;
        black_box(i)
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Buffers {
    fn new() -> Buffers {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        Buffers {
            keys: (0..KEYS).map(|_| xorshift(&mut x)).collect(),
            table: vec![0; SLOTS],
            sorted: vec![0; KEYS],
            ring: Ring::new(RING, &mut x),
        }
    }
}

fn slot(key: u64) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize
}

/// Hashing, probing and a sort over about 1 MB, which stays in a core's
/// L2 cache.
fn hash_and_sort(b: &mut Buffers) -> u64 {
    b.table.fill(0);
    for &k in &b.keys {
        let mut i = slot(k);
        while b.table[i] != 0 {
            i = (i + 1) % SLOTS;
        }
        b.table[i] = k;
    }
    let mut acc = 0u64;
    for &k in b.keys.iter().rev() {
        let mut i = slot(k);
        while b.table[i] != k {
            i = (i + 1) % SLOTS;
        }
        acc = acc.wrapping_add(i as u64);
    }
    b.sorted.copy_from_slice(&b.keys);
    b.sorted.sort_unstable();
    black_box(acc ^ b.sorted[KEYS / 2])
}

/// The reference kernel, in two halves of about equal time: hashing and
/// sorting that stay in L2, and a walk of dependent loads around a ring
/// that does not. On a shared host the two slow down differently; the
/// program's operations do both kinds of work, and in probes on a shared
/// 2-vCPU virtual machine (see `README.md`) the two together tracked their
/// slowdown better than either alone.
fn kernel(b: &mut Buffers) {
    hash_and_sort(b);
    b.ring.walk(STEPS);
}

/// Kernel samples of one run, in time order.
pub struct HostSpeed {
    origin: Instant,
    buffers: RefCell<Buffers>,
    last: Cell<Option<f64>>,
    /// (midpoint in seconds since `origin`, kernel time in ms)
    samples: RefCell<Vec<(f64, f64)>>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed {
            origin: Instant::now(),
            buffers: RefCell::new(Buffers::new()),
            last: Cell::new(None),
            samples: RefCell::new(Vec::new()),
        }
    }

    /// Seconds since this run's origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times `reps` kernel runs after an untimed hashing half that brings
    /// its buffers back into the cache the program's operations used.
    fn sample(&self, reps: usize) {
        let mut buffers = self.buffers.borrow_mut();
        hash_and_sort(&mut buffers);
        for _ in 0..reps {
            let t0 = self.now_s();
            kernel(&mut buffers);
            let t1 = self.now_s();
            self.samples
                .borrow_mut()
                .push(((t0 + t1) / 2.0, (t1 - t0) * 1e3));
        }
        self.last.set(Some(self.now_s()));
    }

    /// Takes kernel samples when one is due; called before each operation.
    pub fn tick(&self) {
        let reps = match self.last.get() {
            None => MAX_REPS,
            Some(t) => (((self.now_s() - t) / PERIOD_S) as usize).min(MAX_REPS),
        };
        if reps > 0 {
            self.sample(reps);
        }
    }

    /// Samples after the last operation, so its window is covered.
    pub fn finish(&self) {
        self.sample(MAX_REPS);
    }

    /// Host slowness over `[t0, t1]`: the median kernel time within
    /// `WINDOW_S` of it over `NOMINAL_KERNEL_MS` (1 with no samples).
    pub fn slowness(&self, t0: f64, t1: f64) -> f64 {
        let samples = self.samples.borrow();
        let near: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= t0 - WINDOW_S && *t <= t1 + WINDOW_S)
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            return 1.0;
        }
        median(&near) / NOMINAL_KERNEL_MS
    }

    /// Every kernel sample: (midpoint in seconds, time in ms).
    pub fn samples(&self) -> Vec<(f64, f64)> {
        self.samples.borrow().clone()
    }

    /// Median kernel time over the run, in ms, and the sample count.
    pub fn kernel_ms(&self) -> (f64, usize) {
        let samples = self.samples.borrow();
        let ms: Vec<f64> = samples.iter().map(|s| s.1).collect();
        (median(&ms), ms.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_follows_the_kernel_samples_near_an_operation() {
        let host = HostSpeed::new();
        let nominal = NOMINAL_KERNEL_MS;
        *host.samples.borrow_mut() = (0..100)
            .map(|i| {
                let t = f64::from(i) * 0.1;
                (t, if t < 5.0 { 2.0 * nominal } else { nominal })
            })
            .collect();
        assert_eq!(host.slowness(1.0, 1.1), 2.0);
        assert_eq!(host.slowness(8.0, 8.1), 1.0);
        assert_eq!(HostSpeed::new().slowness(0.0, 1.0), 1.0);
        let mut b = Buffers::new();
        assert_eq!(hash_and_sort(&mut b), hash_and_sort(&mut b));
        // The ring is one cycle: a walk of its length comes back to its
        // start, and no shorter walk does.
        let start = b.ring.at;
        let mut seen = 0;
        let mut i = start;
        loop {
            i = b.ring.next[i as usize];
            seen += 1;
            if i == start {
                break;
            }
        }
        assert_eq!(seen, RING);
    }
}
