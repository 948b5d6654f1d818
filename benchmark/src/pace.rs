//! The pace probe: how much slower than its quiet self the host is
//! running right now, for work shaped like the workload's.
//!
//! The host is shared, and for minutes at a time it runs compute-bound
//! work up to twice as slowly (`serve-sharded`'s median latency went
//! from 27 ms to 59 ms between two 60 s recordings of one binary). A
//! time read off the wall clock is therefore work × host slowness, and
//! no statistic of the times alone separates the two. The probe
//! measures the second factor: a fixed piece of work that is frozen in
//! this file — so no change to the repo moves it — run between the
//! slices of the timed phase, on as many threads as the workload keeps
//! busy and bound by what the workload is bound by. A slice's times
//! are divided by its slowdown (README.md, "Host-speed correction").

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// What a workload's busy threads look like to the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One thread of cache-resident compute (`serve-cold`: one
    /// scheduler worker runs the stabilizer shots).
    Compute1,
    /// Two threads of cache-resident compute at once (`lib-compas`:
    /// the 2-thread shot pool; `serve-sharded`: two workers).
    Compute2,
    /// Two threads streaming a buffer larger than L2 (`lib-wide-sv`:
    /// amplitude-parallel kernels over a 16 MiB state).
    Stream2,
    /// Two threads handing one byte back and forth over a socket pair,
    /// each asleep while the other runs (`serve-warm`: syscalls and
    /// context switches on one CPU, no computation to speak of).
    Handoff,
}

impl Shape {
    /// The shape of workload `name`.
    pub fn of(name: &str) -> Shape {
        match name {
            "serve-cold" => Shape::Compute1,
            "lib-compas" | "serve-sharded" => Shape::Compute2,
            "lib-wide-sv" => Shape::Stream2,
            _ => Shape::Handoff,
        }
    }

    /// Nanoseconds the probe takes on this host when nothing disturbs
    /// it: the 5th percentile of the probes of some forty 10 s runs. Only a
    /// scale — it makes a corrected time read like a wall-clock time
    /// taken in a quiet minute — so on another machine it is off by a
    /// constant factor, the same for every commit measured there.
    fn quiet_ns(self) -> f64 {
        match self {
            Shape::Compute1 => 625e3,
            Shape::Compute2 => 1_340e3,
            Shape::Stream2 => 1_450e3,
            Shape::Handoff => 930e3,
        }
    }
}

/// Rounds of [`compute`] per probe, on each of its threads.
const COMPUTE1_ROUNDS: u32 = 100_000;
const COMPUTE2_ROUNDS: u32 = 200_000;
/// 64-bit words each [`Shape::Stream2`] thread reads and writes: 8 MiB,
/// four times a core's L2.
const STREAM_WORDS: usize = 1 << 20;
/// A probe is the median of this many back-to-back passes. Not the
/// fastest: the host's slow stretches are made of slow milliseconds
/// between quick ones, an op of 10–200 ms averages over them, and the
/// fastest of three 1 ms passes would miss what the op felt.
const PASSES: usize = 3;
/// Round trips of one [`Shape::Handoff`] pass.
const HANDOFFS: usize = 200;

/// Eight independent xorshift streams, each scattering into a 16 KiB
/// table: enough instruction-level parallelism to feel a busy sibling
/// hyperthread the way the simulators' inner loops do. (A single
/// dependent chain does not: it kept its pace to ± 4 % while
/// `serve-cold` doubled.)
fn compute(rounds: u32) {
    let mut x: [u64; 8] = [
        0x9E37_79B9_7F4A_7C15,
        0xD1B5_4A32_D192_ED03,
        0x8CB9_2BA7_2F3D_8DD7,
        0xA24B_AED4_963E_E407,
        3,
        5,
        7,
        11,
    ];
    let mut table = [0u32; 4096];
    for _ in 0..rounds {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let i = (*v as usize) & 4095;
            table[i] = table[i].wrapping_add(*v as u32);
        }
    }
    std::hint::black_box((&x, &table));
}

/// [`HANDOFFS`] one-byte round trips between this thread and a helper.
fn handoffs() {
    let (mut here, mut there) = UnixStream::pair().expect("socket pair");
    let mut byte = [0u8; 1];
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut byte = [0u8; 1];
            while there.read_exact(&mut byte).is_ok() {
                if there.write_all(&byte).is_err() {
                    break;
                }
            }
        });
        for _ in 0..HANDOFFS {
            here.write_all(&byte).expect("probe socket");
            here.read_exact(&mut byte).expect("probe socket");
        }
        // Closing this end ends the helper's loop.
        drop(here);
    });
}

fn stream(words: &mut [u64]) {
    for w in words.iter_mut() {
        *w = w.wrapping_mul(3).wrapping_add(1);
    }
    std::hint::black_box(words);
}

/// The probe of one run.
pub struct Pace {
    shape: Shape,
    /// [`Shape::Stream2`] only: one buffer per thread, touched once
    /// here so that no probe pays for page faults.
    buffers: [Vec<u64>; 2],
}

impl Pace {
    /// The probe for workload `name`.
    pub fn of(name: &str) -> Pace {
        let shape = Shape::of(name);
        let words = if shape == Shape::Stream2 {
            STREAM_WORDS
        } else {
            0
        };
        Pace {
            shape,
            buffers: [vec![1; words], vec![1; words]],
        }
    }

    /// One pass; returns its nanoseconds.
    fn pass(&mut self) -> f64 {
        let [mine, theirs] = &mut self.buffers;
        let t0 = Instant::now();
        match self.shape {
            Shape::Compute1 => compute(COMPUTE1_ROUNDS),
            Shape::Compute2 => std::thread::scope(|s| {
                s.spawn(|| compute(COMPUTE2_ROUNDS));
                compute(COMPUTE2_ROUNDS);
            }),
            Shape::Stream2 => std::thread::scope(|s| {
                s.spawn(|| stream(theirs));
                stream(mine);
            }),
            Shape::Handoff => handoffs(),
        }
        t0.elapsed().as_nanos() as f64
    }

    /// Runs the probe and returns the host's slowdown: probe time over
    /// its quiet time, so 1 on a quiet host and 2 when everything
    /// takes twice as long.
    pub fn slowdown(&mut self) -> f64 {
        let passes: Vec<f64> = (0..PASSES).map(|_| self.pass()).collect();
        crate::stats::median(&passes) / self.shape.quiet_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_has_a_probe_that_runs() {
        for name in crate::metrics::WORKLOADS {
            let slowdown = Pace::of(name).slowdown();
            // Loose: a debug build is an order of magnitude slow.
            assert!(slowdown > 0.2 && slowdown < 1000.0, "{name}: {slowdown}");
        }
        assert_eq!(Shape::of("serve-warm"), Shape::Handoff);
        assert_eq!(Shape::of("lib-wide-sv"), Shape::Stream2);
    }
}
