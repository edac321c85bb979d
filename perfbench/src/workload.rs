//! The four workloads: scene, renderer configuration, frame list and
//! correctness floors.
//!
//! Scenes are the repository's fixed presets, like the paper's fixed
//! datasets. The command-line seed moves the camera: it shifts each
//! closed-loop path sideways by a seeded offset, and draws the serve
//! sessions' start frames and speeds. A seeded scene would change the
//! work per frame by ~5% from seed to seed, on top of the machine's own
//! noise, while a shifted camera changes it far less.
//!
//! Every workload renders serially (`Parallelism::Serial`, the default)
//! in one process: on a small shared machine two render threads made
//! frame times far noisier than one.

use neo_core::{LodConfig, RendererConfig, StorageFormat, StrategyKind, WarmStartConfig};
use neo_math::Vec3;
use neo_scene::presets::ScenePreset;
use neo_scene::synth::CityParams;
use neo_scene::{Camera, CameraPath, FrameSampler, GaussianCloud, Resolution};
use neo_serve::{FrameBudget, SessionSpec, WorkloadSpec};

/// Frame rate every trajectory is sampled at.
pub const FPS: f32 = 30.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BuildingRaster,
    QhdSort,
    CityLod,
    ServeVr,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BuildingRaster,
        Workload::QhdSort,
        Workload::CityLod,
        Workload::ServeVr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildingRaster => "building-raster",
            Workload::QhdSort => "qhd-sort",
            Workload::CityLod => "city-lod",
            Workload::ServeVr => "serve-vr",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is what the benchmark measures; reduced size is the same
/// workload shrunk so the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Reduced,
}

/// A value in [-1, 1) drawn from `seed` (splitmix64 of seed and salt).
pub fn unit_offset(seed: u64, salt: u64) -> f32 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
}

/// `path` moved sideways by `shift`: the flyover's sweep center, or the
/// dolly's start, end and target together.
fn shifted(path: CameraPath, shift: Vec3) -> CameraPath {
    match path {
        CameraPath::Flyover {
            center,
            half_width,
            altitude,
            speed,
            lookahead,
            fov_y,
        } => CameraPath::Flyover {
            center: center + shift,
            half_width,
            altitude,
            speed,
            lookahead,
            fov_y,
        },
        CameraPath::Dolly {
            from,
            to,
            target,
            duration,
            fov_y,
        } => CameraPath::Dolly {
            from: from + shift,
            to: to + shift,
            target: target + shift,
            duration,
            fov_y,
        },
        other => other,
    }
}

/// A closed-loop workload: one client renders the frame list back to
/// back, each frame starting when the previous one finished.
#[derive(Debug, Clone)]
pub struct ClosedSpec {
    pub workload: Workload,
    pub scene: GaussianCloud,
    pub config: RendererConfig,
    pub kind: StrategyKind,
    /// The frame list one pass renders, in order.
    pub cameras: Vec<Camera>,
    /// Positions in `cameras` whose image is compared with the reference
    /// renderer for `psnr_db`.
    pub psnr_frames: Vec<usize>,
    /// Lowest acceptable PSNR (dB) against the reference renderer.
    pub psnr_floor: f64,
}

/// Display budget of the closed loops (15 Hz): a frame slower than this
/// misses its deadline. Twice the slowest workload's median frame time.
pub const BUDGET_MS: f64 = 1000.0 / 15.0;

/// A forward-and-back sweep over trajectory frames `first..=last`: the
/// camera never leaves that stretch of the path however many passes
/// run, and consecutive frames stay one frame apart.
pub fn sweep(first: usize, last: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (first..=last).collect();
    ids.extend((first + 1..last).rev());
    ids
}

/// The Building flyover with its sweep moved up to 2 units (of the
/// scene's 120) along both ground axes.
fn building_path(seed: u64) -> CameraPath {
    let shift = Vec3::new(unit_offset(seed, 1), 0.0, unit_offset(seed, 2)) * 2.0;
    shifted(ScenePreset::Building.trajectory(), shift)
}

pub fn closed_spec(workload: Workload, seed: u64, size: Size) -> ClosedSpec {
    let full = size == Size::Full;
    let frames = |sampler: FrameSampler, ids: Vec<usize>| -> Vec<Camera> {
        ids.into_iter().map(|i| sampler.frame(i)).collect()
    };
    // (scene, config, strategy, frame list, images compared, PSNR floor)
    let (scene, config, kind, cameras, psnr_shots, psnr_floor) = match workload {
        // The flyover leaves the scene after a few hundred frames; its
        // first 64 frames keep at least 85% of frame 0's splats.
        Workload::BuildingRaster => {
            let (scale, res, last) = if full {
                (0.002, Resolution::Custom(640, 360), 64)
            } else {
                (0.0005, Resolution::Custom(160, 90), 4)
            };
            (
                ScenePreset::Building.build_scaled(scale),
                RendererConfig::default().with_tile_size(32),
                StrategyKind::ReuseUpdate,
                frames(
                    FrameSampler::new(building_path(seed), FPS, res),
                    sweep(0, last),
                ),
                16,
                30.0,
            )
        }
        Workload::QhdSort => {
            let (scale, res, last) = if full {
                (0.01, Resolution::Qhd, 64)
            } else {
                (0.001, Resolution::Custom(320, 180), 4)
            };
            (
                ScenePreset::Building.build_scaled(scale),
                RendererConfig::default().with_tile_size(64).without_image(),
                StrategyKind::ReuseUpdate,
                frames(
                    FrameSampler::new(building_path(seed), FPS, res),
                    sweep(0, last),
                ),
                4,
                30.0,
            )
        }
        // Mid scale of the LOD sweep, with its tight clusters; the frame
        // window sits well inside the dolly so the camera never parks,
        // and the seed moves the dolly up to 1.5 units across its 8-unit
        // street.
        Workload::CityLod => {
            let (scale, per_block, res, first, last) = if full {
                (16.0, 300, Resolution::Custom(320, 180), 240, 300)
            } else {
                (1.0, 60, Resolution::Custom(160, 90), 30, 34)
            };
            let params = CityParams {
                splats_per_block: per_block,
                ..CityParams::default().scaled(scale)
            };
            let shift = Vec3::new(1.5 * unit_offset(seed, 3), 0.0, 0.0);
            let sampler = FrameSampler::new(shifted(params.trajectory(), shift), FPS, res);
            let config = RendererConfig::default()
                .with_tile_size(32)
                .with_storage(StorageFormat::Compact)
                .with_temporal_cache(WarmStartConfig::default())
                .with_lod(LodConfig {
                    cluster_size: 128,
                    proxy_footprint_px: 96.0,
                });
            (
                params.build(),
                config,
                StrategyKind::FullResort,
                frames(sampler, sweep(first, last)),
                8,
                15.0,
            )
        }
        Workload::ServeVr => panic!("serve-vr is an open-loop workload"),
    };
    // Images spread over the list, never the cold first frame.
    let n = cameras.len();
    ClosedSpec {
        workload,
        scene,
        config,
        kind,
        cameras,
        psnr_frames: (1..=psnr_shots).map(|k| k * (n - 1) / psnr_shots).collect(),
        psnr_floor,
    }
}

/// The open-loop serving workload: sessions arrive on a fixed stagger
/// and each releases frames at a fixed rate, whatever the server does.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub scene: GaussianCloud,
    pub config: RendererConfig,
    pub trajectory: CameraPath,
    /// The sessions of one segment.
    pub sessions: Vec<SessionSpec>,
    /// Back-to-back serve runs of `sessions`, with machine-speed probes
    /// between them (see `probe`).
    pub segments: usize,
    pub psnr_floor: f64,
}

/// Length of one serve-vr segment.
const SEGMENT_SECONDS: f64 = 2.5;

/// Sessions offered by serve-vr.
pub const SERVE_SESSIONS: u32 = 8;
/// Refresh rate of every serve-vr session.
pub const SERVE_HZ: f64 = 30.0;

/// The serve-vr sessions: drawn from `WorkloadSpec` with `seed`, then
/// given evenly staggered arrivals inside one frame period (in the
/// seeded arrival order), so the offered load is the same for every seed.
pub fn serve_sessions(seed: u64, frames: u32, res: (u32, u32)) -> Vec<SessionSpec> {
    let period_us = FrameBudget::from_refresh_hz(SERVE_HZ).period_us;
    let mut specs = WorkloadSpec {
        sessions: SERVE_SESSIONS,
        seed,
        frames: (frames, frames),
        refresh_choices: vec![SERVE_HZ],
        resolutions: vec![res],
        arrival_spread_us: period_us,
        deadline_slack_pct: 100,
    }
    .generate()
    .expect("the serve-vr workload spec is valid");
    for (slot, s) in specs.iter_mut().enumerate() {
        s.arrival_us = slot as u64 * period_us / u64::from(SERVE_SESSIONS);
    }
    specs
}

pub fn serve_spec(seed: u64, seconds: f64, size: Size) -> ServeSpec {
    let (scale, res, segments) = match size {
        Size::Full => (
            0.0005,
            (96, 54),
            (seconds / SEGMENT_SECONDS).round().max(1.0) as usize,
        ),
        Size::Reduced => (0.0002, (64, 36), 2),
    };
    let frames = match size {
        Size::Full => (seconds * SERVE_HZ / segments as f64).round().max(1.0) as u32,
        Size::Reduced => 40,
    };
    ServeSpec {
        scene: ScenePreset::Family.build_scaled(scale),
        config: RendererConfig::default().with_tile_size(32),
        trajectory: ScenePreset::Family.trajectory(),
        sessions: serve_sessions(seed, frames, res),
        segments,
        psnr_floor: 30.0,
    }
}

/// The camera a serve session renders for its `frame`-th frame — the
/// same sampling `ServeDriver` does.
pub fn session_camera(trajectory: &CameraPath, spec: &SessionSpec, frame: u32) -> Camera {
    FrameSampler::new(
        trajectory.clone(),
        FPS,
        Resolution::Custom(spec.width, spec.height),
    )
    .with_speed(spec.speed)
    .frame(spec.start_frame as usize + frame as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_goes_forward_and_back() {
        assert_eq!(sweep(0, 3), vec![0, 1, 2, 3, 2, 1]);
        assert_eq!(sweep(5, 7), vec![5, 6, 7, 6]);
    }

    #[test]
    fn serve_generator_is_a_pure_function_of_its_seed() {
        let a = serve_sessions(7, 10, (128, 72));
        assert_eq!(a, serve_sessions(7, 10, (128, 72)));
        assert_ne!(a, serve_sessions(8, 10, (128, 72)));
        assert_eq!(a.len(), SERVE_SESSIONS as usize);
        let period = FrameBudget::from_refresh_hz(SERVE_HZ).period_us;
        for (slot, s) in a.iter().enumerate() {
            assert_eq!(s.arrival_us, slot as u64 * period / 8);
            assert_eq!(s.budget.deadline_us, s.budget.period_us);
            assert_eq!(s.frames, 10);
        }
    }

    #[test]
    fn frame_lists_are_pure_functions_of_the_seed() {
        for w in [
            Workload::BuildingRaster,
            Workload::QhdSort,
            Workload::CityLod,
        ] {
            let a = closed_spec(w, 3, Size::Reduced);
            let b = closed_spec(w, 3, Size::Reduced);
            assert_eq!(a.cameras, b.cameras);
            assert_eq!(a.scene, closed_spec(w, 4, Size::Reduced).scene);
            assert_ne!(a.cameras, closed_spec(w, 4, Size::Reduced).cameras);
        }
        for seed in 0..100 {
            assert!((-1.0..1.0).contains(&unit_offset(seed, 1)));
        }
    }
}
