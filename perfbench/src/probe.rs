//! The machine-speed probe: a fixed kernel owned by the benchmark, run
//! between measured frames so that every timing can be put at one
//! reference machine speed.
//!
//! On a shared VM the time of the same frame drifts by up to 1.5x for
//! minutes on end, as other tenants load the core's caches and execution
//! units: two sets of ten runs half an hour apart had medians 35% apart,
//! which no bound of 25% survives. The probe mixes what a frame does —
//! an alpha-blend loop over a 64x64 tile and a sort of 8k keys — and
//! slows down with it: in one 60-s run, per-pass frame medians spanned
//! 1.6x while their ratio to the probe stayed within ±7%. A time `t`
//! measured while the probe took `p` is reported as `t * REFERENCE_MS / p`,
//! the time on a machine where the probe takes `REFERENCE_MS`. The probe
//! is not repository code, so a change to the renderer moves reported
//! times and leaves the probe alone. The wall-clock values are printed
//! in the run's metadata line.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, in ms, of the reference machine speed (a quiet 2-vCPU
/// Xeon VM).
pub const REFERENCE_MS: f64 = 1.5;

fn kernel(seed: u32) -> f32 {
    let mut color = [0f32; 4096];
    let mut transmittance = [1f32; 4096];
    for s in 0..64u32 {
        let cx = ((s * 37 + seed) % 64) as f32;
        let cy = ((s * 91 + seed) % 64) as f32;
        let opacity = 0.3 + (s % 7) as f32 * 0.05;
        for y in 0..64 {
            for x in 0..64 {
                let (dx, dy) = (x as f32 - cx, y as f32 - cy);
                let alpha = opacity * (-(dx * dx + dy * dy) * 0.01).exp();
                let i = y * 64 + x;
                color[i] += alpha * transmittance[i];
                transmittance[i] *= 1.0 - alpha;
            }
        }
    }
    let mut keys: Vec<u32> = (0..8192u32)
        .map(|i| i.wrapping_mul(2_654_435_761) ^ seed)
        .collect();
    keys.sort_unstable();
    color
        .iter()
        .zip(&transmittance)
        .map(|(c, t)| c + t)
        .sum::<f32>()
        + keys[seed as usize % keys.len()] as f32
}

/// Runs the probe once and returns its wall time in ms.
pub fn run(seed: u32) -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(seed)));
    start.elapsed().as_secs_f64() * 1e3
}

/// Factor that puts times measured alongside `probes` at the reference
/// machine speed.
pub fn to_reference(probes: &[f64]) -> f64 {
    REFERENCE_MS / median(probes)
}

/// Probes on each side of a time that set its factor: the machine's
/// speed changes within seconds, a single probe is noisier than a frame.
const HALF_WINDOW: usize = 8;

/// `times[i]` at the reference machine speed, where `probes[i]` ran right
/// after it: each is scaled by the median of the probes around it.
pub fn each_to_reference(times: &[f64], probes: &[f64]) -> Vec<f64> {
    (0..times.len())
        .map(|i| {
            let window =
                &probes[i.saturating_sub(HALF_WINDOW)..(i + HALF_WINDOW + 1).min(probes.len())];
            times[i] * to_reference(window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_and_takes_time() {
        assert_eq!(kernel(3).to_bits(), kernel(3).to_bits());
        assert!(run(3) > 0.0);
        assert!((to_reference(&[REFERENCE_MS, 2.0 * REFERENCE_MS, 0.5]) - 1.0).abs() < 1e-12);
        // A slow stretch of probes scales the times it surrounds, only.
        let mut probes = vec![REFERENCE_MS; 40];
        probes[20..].fill(2.0 * REFERENCE_MS);
        let scaled = each_to_reference(&[10.0; 40], &probes);
        assert_eq!(scaled[0], 10.0);
        assert_eq!(scaled[39], 5.0);
    }
}
