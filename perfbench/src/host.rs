//! Host-speed calibration of the end-to-end timings.
//!
//! The reference host is a shared guest whose speed switches between a
//! fast and a slow state, about 1.6× apart, in phases that last from
//! seconds to minutes. One run can sit mostly in either state, so medians
//! of raw host time spread by up to a quarter from run to run. Every
//! timed call of an untraced run is therefore bracketed by a fixed
//! calibration [`kernel`] — code of the benchmark's own, which no change
//! to the program alters — run on as many threads as the call uses, and
//! its host time is rescaled by how long the kernel took:
//! `raw × REFERENCE_KERNEL_S / kernel`. The rescaled time reads as
//! seconds on the reference host at its median speed.

use std::time::Instant;

/// The calibration kernel's median time on the reference host (2-vCPU
/// Intel Xeon guest, release build, rustc 1.95.0). It only sets the
/// scale of the rescaled times.
pub const REFERENCE_KERNEL_S: f64 = 0.017;

/// Steps the kernel's stack machine runs.
const MACHINE_STEPS: u64 = 4_500_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The calibration kernel: 4.5 million steps of a small stack machine
/// whose branches depend on its data. Its 2 s averages track the kill
/// grid's with a correlation of 0.96 on the reference host, where a
/// plain arithmetic loop reaches 0.78. It allocates nothing, so it adds
/// nothing to `peak_rss_mb`. Returns a checksum.
#[must_use]
pub fn kernel() -> u64 {
    #[allow(clippy::cast_possible_truncation)]
    let program: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) % 6);
    let (mut seed, mut acc, mut pc) = (3, 0_u64, 0);
    for _ in 0..MACHINE_STEPS {
        match program[pc] {
            0 => acc = acc.wrapping_add(xorshift(&mut seed) & 0xff),
            1 => acc ^= acc >> 3,
            2 if acc & 1 == 0 => pc = (pc + 5) % 64,
            3 => acc = acc.wrapping_mul(3),
            4 if xorshift(&mut seed) & 3 == 0 => acc += 1,
            5 => acc = acc.rotate_left(5),
            _ => {}
        }
        pc = (pc + 1) % 64;
    }
    acc
}

/// Runs the kernel on `threads` threads at once; mean seconds per thread.
fn kernel_seconds(threads: usize) -> f64 {
    if threads <= 1 {
        let t = Instant::now();
        std::hint::black_box(kernel());
        return t.elapsed().as_secs_f64();
    }
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(|| kernel_seconds(1))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the kernel does not panic"))
            .sum()
    });
    #[allow(clippy::cast_precision_loss)]
    let mean = total / threads as f64;
    mean
}

/// Runs `f` between two kernel runs on `threads` threads and returns its
/// result with the host-speed factor: [`REFERENCE_KERNEL_S`] over the
/// mean of the two kernel runs. A host time measured inside `f`, times
/// the factor, is that time on the reference host.
pub fn calibrated<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_seconds(threads);
    let out = f();
    let after = kernel_seconds(threads);
    (out, 2.0 * REFERENCE_KERNEL_S / (before + after))
}
