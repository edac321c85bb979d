//! Closed-loop workloads: set-up, timed passes over the frame list,
//! and the correctness gate (untraced), or the traced layer run.

use crate::layers::{self, ServeLayer};
use crate::probe;
use crate::recompose::Recomposer;
use crate::stats::{self, beyond, frame_digest, median, percentile};
use crate::trace::{Tracer, NO_FRAME};
use crate::workload::ClosedSpec;
use crate::{guard, Metric, Outcome};
use neo_core::{FrameResult, RenderEngine, RendererConfig, StrategyKind};
use neo_pipeline::{render_reference, Image, RenderConfig};
use neo_scene::io::{decode_cloud, encode_cloud};
use neo_scene::{Camera, ClusterParams, ClusteredCloud, CompactCloud, StorageFormat};
use std::time::Instant;

/// How often a run repeats the set-up: at least `reps` times, and more
/// (up to `SETUP_MAX_REPS`) until the repetitions have taken `seconds`,
/// so a set-up of a millisecond is sampled as well as one of 100 ms.
#[derive(Debug, Clone, Copy)]
pub struct SetUpReps {
    pub reps: usize,
    pub seconds: f64,
}

/// Untraced runs; `setup_s` is the median of these set-ups.
pub const SETUP: SetUpReps = SetUpReps {
    reps: 9,
    seconds: 0.5,
};
/// Traced runs: samples for the set-up spans.
pub const TRACED_SETUP: SetUpReps = SetUpReps {
    reps: 3,
    seconds: 0.0,
};
const SETUP_MAX_REPS: usize = 500;
/// Frames of the first pass written to the Chrome trace.
const CHROME_FRAMES: u64 = 16;
/// A percentile needs this many samples beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;
/// Timed frames a closed-loop run collects at least, so that p90 has
/// `TAIL_SAMPLES` beyond it.
const MIN_TIMED_FRAMES: usize = 12 * TAIL_SAMPLES;

/// The program's set-up, repeated as `plan` says: NEOG bytes → decoded
/// cloud → engine (storage backend, cluster index) → first finished frame. Returns the last engine and every set-up's
/// seconds; spans are recorded only when `t` is enabled.
pub fn set_up(
    plan: SetUpReps,
    bytes: &[u8],
    config: &RendererConfig,
    kind: StrategyKind,
    first: &Camera,
    t: &mut Tracer,
) -> Result<(RenderEngine, Vec<f64>), String> {
    let mut engine = None;
    let mut seconds: Vec<f64> = Vec::with_capacity(plan.reps);
    let mut probes = Vec::with_capacity(plan.reps);
    while seconds.len() < plan.reps
        || (seconds.iter().sum::<f64>() < plan.seconds && seconds.len() < SETUP_MAX_REPS)
    {
        let start = Instant::now();
        let cloud = t
            .time("scene.decode", NO_FRAME, || decode_cloud(bytes))
            .map_err(|e| format!("decode: {e}"))?;
        let e = t
            .time("core.build", NO_FRAME, || {
                RenderEngine::builder()
                    .scene(cloud)
                    .config(config.clone())
                    .strategy(kind)
                    .build()
            })
            .map_err(|e| format!("build: {e}"))?;
        t.time("core.first_frame", NO_FRAME, || {
            e.session().render_frame(first)
        })
        .map_err(|e| format!("first frame: {e}"))?;
        seconds.push(start.elapsed().as_secs_f64());
        probes.push(probe::run(seconds.len() as u32));
        engine = Some(e);
    }
    let seconds = probe::each_to_reference(&seconds, &probes);
    Ok((engine.ok_or("no set-up ran")?, seconds))
}

/// Times the storage and cluster builds the engine builder runs, by
/// calling them directly (the builder's own span covers both).
fn trace_scene_builds(spec: &ClosedSpec, engine: &RenderEngine, t: &mut Tracer) {
    for _ in 0..TRACED_SETUP.reps {
        if spec.config.storage == StorageFormat::Compact {
            t.time("scene.storage_build", NO_FRAME, || {
                std::hint::black_box(CompactCloud::from_cloud(engine.scene()))
            });
        }
        if let Some(lod) = &spec.config.lod {
            t.time("scene.cluster_build", NO_FRAME, || {
                std::hint::black_box(ClusteredCloud::build(
                    engine.storage().as_ref(),
                    ClusterParams {
                        target_cluster_size: lod.cluster_size,
                    },
                ))
            });
        }
    }
}

/// The reference renderer's settings matching the engine's.
pub fn raster_config(config: &RendererConfig) -> RenderConfig {
    RenderConfig {
        tile_size: config.tile_size,
        background: config.background,
        subtiling: config.subtiling,
        raster_fast_path: config.raster_fast_path,
        ..RenderConfig::default()
    }
}

/// Squared error of `img` against the reference renderer's image of
/// the same camera.
pub fn reference_mse(engine: &RenderEngine, cfg: &RenderConfig, cam: &Camera, img: &Image) -> f64 {
    let (reference, _) = render_reference(engine.storage().as_ref(), cam, cfg);
    neo_metrics::mse(img, &reference)
}

/// PSNR of the mean squared error over the compared frames, capped at
/// 100 dB so an exact match stays a finite number.
pub fn psnr_db(mse: &[f64]) -> f64 {
    let m = stats::mean(mse);
    if m > 0.0 {
        (10.0 * (1.0 / m).log10()).min(100.0)
    } else {
        100.0
    }
}

/// The untraced run: every end-to-end metric, and the correctness gate.
pub fn run(spec: &ClosedSpec, seconds: f64) -> Result<Outcome, String> {
    let bytes = encode_cloud(&spec.scene);
    let mut off = Tracer::new(false);
    let (engine, setups) = set_up(
        SETUP,
        &bytes,
        &spec.config,
        spec.kind,
        &spec.cameras[0],
        &mut off,
    )?;

    // Timed passes: each a fresh session whose cold first frame is
    // rendered but not timed. Passes repeat until `seconds` have gone
    // by, at least twice so every frame is checked against a repeat, and
    // until p90 has enough samples beyond it. A probe runs after every
    // timed frame, and puts the frames around it at the reference
    // machine speed.
    let mut frame_ms = Vec::new();
    let mut wall_ms = Vec::new();
    let mut passes: Vec<Vec<u64>> = Vec::new();
    let mut reference: Vec<FrameResult> = Vec::new();
    let timed_start = Instant::now();
    while passes.len() < 2
        || frame_ms.len() < MIN_TIMED_FRAMES
        || timed_start.elapsed().as_secs_f64() < seconds
    {
        let mut session = engine.session();
        let mut digests = Vec::with_capacity(spec.cameras.len());
        let (mut pass_ms, mut probes) = (Vec::new(), Vec::new());
        for (i, cam) in spec.cameras.iter().enumerate() {
            let start = Instant::now();
            let fr = session.render_frame(cam).map_err(|e| e.to_string())?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if i > 0 {
                pass_ms.push(ms);
                probes.push(probe::run(i as u32));
            }
            digests.push(frame_digest(&fr));
            if passes.is_empty() {
                reference.push(FrameResult { image: None, ..fr });
            }
        }
        frame_ms.extend(probe::each_to_reference(&pass_ms, &probes));
        wall_ms.extend(pass_ms);
        passes.push(digests);
    }

    let mut failures = Vec::new();
    for (p, digests) in passes.iter().enumerate().skip(1) {
        if let Some(i) = (0..digests.len()).find(|&i| digests[i] != passes[0][i]) {
            failures.push(format!("pass {p} frame {i} differs from pass 0"));
        }
    }

    // The outside-in recomposition must rebuild every frame exactly; it
    // also provides the images for the PSNR check.
    let mut recomposer = Recomposer::new(&engine, spec.kind);
    let cfg = raster_config(&spec.config);
    let mut mse = Vec::new();
    for (i, cam) in spec.cameras.iter().enumerate() {
        let want = spec.psnr_frames.contains(&i);
        let fr = recomposer.render(cam, &mut off, i as u64, want);
        if frame_digest(&fr) != passes[0][i] {
            failures.push(format!("recomposed frame {i} differs from the engine's"));
        }
        if want {
            let img = fr
                .image
                .or_else(|| recomposer.take_image())
                .expect("image requested");
            mse.push(reference_mse(&engine, &cfg, cam, &img));
        }
    }
    let psnr = psnr_db(&mse);
    if psnr.is_nan() || psnr < spec.psnr_floor {
        failures.push(format!(
            "psnr {psnr:.2} dB below the {} dB floor",
            spec.psnr_floor
        ));
    }
    failures.extend(guard::on_scene(
        spec.workload.name(),
        &spec.cameras,
        &reference
            .iter()
            .map(|f| f.stats.projected)
            .collect::<Vec<_>>(),
        guard::CLOSED_BAND,
    ));
    let tail = beyond(&frame_ms, 90.0);
    if tail < TAIL_SAMPLES {
        failures.push(format!("only {tail} samples beyond p90"));
    }

    let timed: f64 = frame_ms.iter().sum();
    let late = frame_ms
        .iter()
        .filter(|&&ms| ms > crate::workload::BUDGET_MS)
        .count();
    let attempted = passes.len() * spec.cameras.len();
    let dram = stats::dram_mb_per_frame(&reference[1..]);
    let metrics = vec![
        Metric::new("frame_ms_p50", "ms", median(&frame_ms)),
        Metric::new("frame_ms_p90", "ms", percentile(&frame_ms, 90.0)),
        Metric::new("frames_per_s", "1/s", frame_ms.len() as f64 * 1e3 / timed),
        Metric::new(
            "deadline_met_ratio",
            "ratio",
            1.0 - late as f64 / frame_ms.len() as f64,
        ),
        Metric::new("modeled_dram_mb_per_frame", "MB", dram),
        Metric::new("psnr_db", "dB", psnr),
        Metric::new("setup_s", "s", median(&setups)),
        Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb()),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed: 0,
        failures,
        wall: vec![
            ("frame_ms_p50", median(&wall_ms)),
            ("frame_ms_p90", percentile(&wall_ms, 90.0)),
        ],
        samples: vec![
            ("frame_ms", frame_ms.len()),
            ("frame_ms_beyond_p90", tail),
            ("setup_s", setups.len()),
            ("passes", passes.len()),
            ("psnr_frames", mse.len()),
        ],
        trace: None,
    })
}

/// The traced run: the engine's frame and the outside-in recomposition
/// of the same frame, side by side, for every frame of every pass.
pub fn run_traced(spec: &ClosedSpec, seconds: f64) -> Result<Outcome, String> {
    let bytes = encode_cloud(&spec.scene);
    let mut t = Tracer::new(true);
    let (engine, _) = set_up(
        TRACED_SETUP,
        &bytes,
        &spec.config,
        spec.kind,
        &spec.cameras[0],
        &mut t,
    )?;
    trace_scene_builds(spec, &engine, &mut t);
    let (w, h) = (spec.cameras[0].width, spec.cameras[0].height);
    let pixels = u64::from(w) * u64::from(h);

    let mut records = Vec::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut frame_id = 0u64;
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut session = engine.session();
        let mut recomposer = Recomposer::new(&engine, spec.kind);
        for (i, cam) in spec.cameras.iter().enumerate() {
            let fr = t
                .time("core.render_frame", frame_id, || session.render_frame(cam))
                .map_err(|e| e.to_string())?;
            let rebuilt = recomposer.render(cam, &mut t, frame_id, false);
            attempted += 1;
            if rebuilt != fr {
                failures.push(format!("pass {pass} frame {i}: recomposition differs"));
            }
            if i > 0 {
                records.push(layers::record(
                    &mut t,
                    frame_id,
                    fr,
                    engine.storage().as_ref(),
                    pixels,
                ));
            }
            frame_id += 1;
        }
        pass += 1;
    }
    let metrics = layers::layer_metrics(&t, &records, &ServeLayer::default());
    let chrome = t.chrome_json(|f| f == NO_FRAME || f < CHROME_FRAMES);
    Ok(Outcome {
        metrics,
        attempted,
        failed: 0,
        failures,
        wall: Vec::new(),
        samples: vec![("traced_frames", records.len()), ("passes", pass)],
        trace: Some(chrome),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{closed_spec, Size, Workload};

    #[test]
    fn reduced_workloads_pass_the_gate_and_traced_parity() {
        for w in [
            Workload::BuildingRaster,
            Workload::QhdSort,
            Workload::CityLod,
        ] {
            let spec = closed_spec(w, 5, Size::Reduced);
            let untraced = run(&spec, 0.5).expect("untraced run");
            assert!(
                untraced.failures.is_empty(),
                "{w:?}: {:?}",
                untraced.failures
            );
            crate::assert_matches_benchmark(&untraced.metrics, "end_to_end");
            let traced = run_traced(&spec, 0.1).expect("traced run");
            assert!(traced.failures.is_empty(), "{w:?}: {:?}", traced.failures);
            crate::assert_matches_benchmark(&traced.metrics, "per_layer");
            assert!(traced.trace.expect("chrome trace").contains("sort.order"));
        }
    }

    #[test]
    fn guard_rejects_a_drained_flyover() {
        let mut spec = closed_spec(Workload::BuildingRaster, 5, Size::Reduced);
        let sampler = neo_scene::FrameSampler::new(
            neo_scene::presets::ScenePreset::Building.trajectory(),
            crate::workload::FPS,
            neo_scene::Resolution::Custom(160, 90),
        );
        spec.cameras = crate::workload::sweep(0, 1200)
            .into_iter()
            .step_by(100)
            .map(|i| sampler.frame(i))
            .collect();
        spec.psnr_frames = vec![1];
        let outcome = run(&spec, 0.1).expect("run");
        assert!(
            outcome.failures.iter().any(|f| f.contains("outside")),
            "{:?}",
            outcome.failures
        );
    }
}
