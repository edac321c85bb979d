//! The on-scene guard: a workload's frames must keep looking at the
//! scene. A frame list that drifts into the drained end of the Building
//! flyover, or past the end of the city dolly where the camera parks,
//! would quietly measure a different workload.

use neo_scene::Camera;

/// Band around the first frame's projected-splat count that every frame
/// of a closed-loop frame list must stay within.
pub const CLOSED_BAND: (f64, f64) = (0.75, 1.25);
/// The band for a serve session: its orbit turns the scene's wide and
/// narrow sides to the camera, but never leaves it.
pub const ORBIT_BAND: (f64, f64) = (0.5, 2.0);

/// Failures of the guard over one frame list: `projected[i]` is the
/// projected-splat count of `cameras[i]`.
pub fn on_scene(
    workload: &str,
    cameras: &[Camera],
    projected: &[usize],
    band: (f64, f64),
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(&first) = projected.first() else {
        return vec![format!("{workload}: empty frame list")];
    };
    if first == 0 {
        failures.push(format!("{workload}: frame 0 projects no splats"));
    }
    let (lo, hi) = (first as f64 * band.0, first as f64 * band.1);
    for (i, &n) in projected.iter().enumerate() {
        if (n as f64) < lo || (n as f64) > hi {
            failures.push(format!(
                "{workload}: frame {i} projects {n} splats, outside {:.0}..{:.0} (frame 0: {first})",
                lo, hi
            ));
        }
    }
    for (i, pair) in cameras.windows(2).enumerate() {
        if pair[0].position == pair[1].position {
            failures.push(format!(
                "{workload}: camera parked between frames {i} and {}",
                i + 1
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_math::Vec3;
    use neo_scene::Resolution;

    fn cam(x: f32) -> Camera {
        Camera::look_at(
            Vec3::new(x, 0.0, -5.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
            0.9,
            Resolution::Custom(64, 64),
        )
    }

    #[test]
    fn drained_and_parked_lists_fail() {
        let moving = [cam(0.0), cam(0.1), cam(0.2)];
        assert!(on_scene("w", &moving, &[100, 95, 110], CLOSED_BAND).is_empty());
        assert_eq!(on_scene("w", &moving, &[100, 95, 40], CLOSED_BAND).len(), 1);
        assert!(on_scene("w", &moving, &[100, 95, 60], ORBIT_BAND).is_empty());
        let parked = [cam(0.0), cam(0.1), cam(0.1)];
        assert_eq!(
            on_scene("w", &parked, &[100, 100, 100], CLOSED_BAND).len(),
            1
        );
    }
}
