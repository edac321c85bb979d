//! Per-layer metrics of a traced run: span times from the recomposed
//! frames, counts from the engine's `FrameResult`s, and the serve and
//! sim layers' own figures.

use crate::recompose::{FRAME_PARTS, LAYER_PARTS};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::Metric;
use neo_core::FrameResult;
use neo_pipeline::Stage;
use neo_scene::CloudStorage;
use neo_sim::devices::{Device, NeoDevice};
use neo_sim::WorkloadFrame;

/// What the traced run keeps of one warm frame (cold first frames are
/// not recorded: they measure table construction, not the steady frame).
#[derive(Debug, Clone)]
pub struct FrameRecord {
    pub id: u64,
    pub result: FrameResult,
    /// Simulated Neo frame time in ms.
    pub neo_ms: f64,
}

/// Runs the Neo device model on `fr` inside a `sim.simulate` span and
/// keeps the frame's record.
pub fn record(
    t: &mut Tracer,
    id: u64,
    mut fr: FrameResult,
    storage: &dyn CloudStorage,
    pixels: u64,
) -> FrameRecord {
    let w = WorkloadFrame {
        n_gaussians: fr.stats.input as u64,
        n_projected: fr.stats.projected as u64,
        duplicates: fr.stats.duplicates as u64,
        occupied_tiles: fr.stats.occupied_tiles as u64,
        pixels,
        incoming: fr.incoming as u64,
        outgoing: fr.outgoing as u64,
        table_entries: fr.total_table_entries(),
        blend_ops: if fr.image.is_some() {
            fr.stats.blend_ops
        } else {
            (pixels as f64 * neo_sim::BLEND_OVERDRAW) as u64
        },
        feature_bytes: storage.record_bytes() as u64,
    };
    let device = NeoDevice::paper_default();
    let timing = t.time("sim.simulate", id, || device.simulate_frame(&w));
    fr.image = None;
    FrameRecord {
        id,
        result: fr,
        neo_ms: timing.latency_ms(),
    }
}

/// The serve layer's figures, from the real-clock schedule trace.
#[derive(Debug, Clone, Default)]
pub struct ServeLayer {
    pub queue_wait_ms: Vec<f64>,
    pub service_ms: Vec<f64>,
    pub admitted: u64,
    pub rejected: u64,
    pub frames_per_tick: f64,
    pub deadline_miss_ratio: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Tracer, frames: &[FrameRecord], serve: &ServeLayer) -> Vec<Metric> {
    let ids: Vec<u64> = frames.iter().map(|f| f.id).collect();
    let ms = |name: &str| median(&t.per_frame_ms(name, &ids));
    let setup_ms = |name: &str| median(&t.durations_ms(name));
    let per_frame = |f: &dyn Fn(&FrameResult) -> f64| {
        mean(&frames.iter().map(|r| f(&r.result)).collect::<Vec<_>>())
    };
    let stage_mb = |stage: Stage| per_frame(&|f| f.stats.traffic.stage_total(stage) as f64) / 1e6;

    let engine = t.per_frame_ms("core.render_frame", &ids);
    let recomposed = t.per_frame_ms("frame.recomposed", &ids);
    let sum_of = |parts: &[&str]| -> Vec<f64> {
        let per_part: Vec<Vec<f64>> = parts.iter().map(|p| t.per_frame_ms(p, &ids)).collect();
        (0..ids.len())
            .map(|i| per_part.iter().map(|v| v[i]).sum())
            .collect()
    };
    let layers = sum_of(&LAYER_PARTS);
    let parts = sum_of(&FRAME_PARTS);
    let self_ms: Vec<f64> = engine.iter().zip(&layers).map(|(e, l)| e - l).collect();
    let coverage: Vec<f64> = engine
        .iter()
        .zip(&parts)
        .map(|(e, p)| 100.0 * ratio(*p, *e))
        .collect();
    let engine_ms = median(&engine);

    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("scene.decode_ms", "ms", setup_ms("scene.decode")),
        m(
            "scene.storage_build_ms",
            "ms",
            setup_ms("scene.storage_build"),
        ),
        m(
            "scene.cluster_build_ms",
            "ms",
            setup_ms("scene.cluster_build"),
        ),
        m("pipeline.project_ms", "ms", ms("pipeline.project")),
        m(
            "pipeline.projected",
            "count",
            per_frame(&|f| f.stats.projected as f64),
        ),
        m(
            "pipeline.lod_culled_ratio",
            "ratio",
            per_frame(&|f| {
                ratio(
                    f.stats.clusters_culled as f64,
                    f.stats.clusters_total as f64,
                )
            }),
        ),
        m(
            "pipeline.lod_splats_saved",
            "count",
            per_frame(&|f| f.stats.lod_splats_saved as f64),
        ),
        m("pipeline.bin_ms", "ms", ms("pipeline.bin")),
        m(
            "pipeline.tile_pairs",
            "count",
            per_frame(&|f| f.stats.duplicates as f64),
        ),
        m(
            "pipeline.occupied_tiles",
            "count",
            per_frame(&|f| f.stats.occupied_tiles as f64),
        ),
        m("pipeline.raster_ms", "ms", ms("pipeline.raster")),
        m(
            "pipeline.pixel_visits",
            "count",
            per_frame(&|f| f.stats.pixel_visits as f64),
        ),
        m(
            "pipeline.blend_ops",
            "count",
            per_frame(&|f| f.stats.blend_ops as f64),
        ),
        m(
            "pipeline.blend_per_visit",
            "ratio",
            per_frame(&|f| ratio(f.stats.blend_ops as f64, f.stats.pixel_visits as f64)),
        ),
        m(
            "pipeline.saturated_pixels",
            "count",
            per_frame(&|f| f.stats.saturated_pixels as f64),
        ),
        m("sort.order_ms", "ms", ms("sort.order")),
        m(
            "sort.compares",
            "count",
            per_frame(&|f| f.sort_cost.compares as f64),
        ),
        m(
            "sort.moves",
            "count",
            per_frame(&|f| f.sort_cost.moves as f64),
        ),
        m(
            "sort.bytes",
            "B",
            per_frame(&|f| f.sort_cost.bytes_total() as f64),
        ),
        m("sort.incoming", "count", per_frame(&|f| f.incoming as f64)),
        m("sort.outgoing", "count", per_frame(&|f| f.outgoing as f64)),
        m(
            "sort.warm_hit_ratio",
            "ratio",
            per_frame(&|f| f.temporal.hit_rate()),
        ),
        m(
            "sort.repair_moves_per_warm_tile",
            "count",
            per_frame(&|f| f.temporal.repair_cost_per_warm_tile()),
        ),
        m("core.build_ms", "ms", setup_ms("core.build")),
        m("core.frame_ms", "ms", engine_ms),
        m("core.self_ms", "ms", median(&self_ms)),
        m("core.span_coverage_pct", "%", median(&coverage)),
        m(
            "core.trace_overhead_pct",
            "%",
            100.0 * ratio(median(&recomposed) - engine_ms, engine_ms),
        ),
        m(
            "serve.queue_wait_ms_p50",
            "ms",
            percentile(&serve.queue_wait_ms, 50.0),
        ),
        m(
            "serve.queue_wait_ms_p90",
            "ms",
            percentile(&serve.queue_wait_ms, 90.0),
        ),
        m(
            "serve.service_ms_p50",
            "ms",
            percentile(&serve.service_ms, 50.0),
        ),
        m("serve.admitted", "count", serve.admitted as f64),
        m("serve.rejected", "count", serve.rejected as f64),
        m("serve.frames_per_tick", "count", serve.frames_per_tick),
        m(
            "serve.deadline_miss_ratio",
            "ratio",
            serve.deadline_miss_ratio,
        ),
        m(
            "sim.dram_mb.feature",
            "MB",
            stage_mb(Stage::FeatureExtraction),
        ),
        m("sim.dram_mb.sort", "MB", stage_mb(Stage::Sorting)),
        m("sim.dram_mb.raster", "MB", stage_mb(Stage::Rasterization)),
        m(
            "sim.neo_frame_ms",
            "ms",
            mean(&frames.iter().map(|f| f.neo_ms).collect::<Vec<_>>()),
        ),
        m("sim.model_us", "us", 1e3 * ms("sim.simulate")),
    ]
}

/// The interaction table, written down before measuring: which
/// end-to-end metric a per-layer metric should move, on which workload,
/// and where the prediction is no change.
pub fn prediction(name: &str) -> &'static str {
    match name {
        n if n.starts_with("scene.") => {
            "setup_s, most on city-lod (storage and cluster builds); qhd-sort and serve-vr only decode"
        }
        "pipeline.project_ms" | "pipeline.projected" | "pipeline.lod_culled_ratio"
        | "pipeline.lod_splats_saved" => {
            "frame_ms_p50 on qhd-sort (~30% of the frame) and city-lod (~20%); small on serve-vr"
        }
        n if n.starts_with("pipeline.bin") || n == "pipeline.tile_pairs" || n == "pipeline.occupied_tiles" => {
            "frame_ms_p50 on qhd-sort (~7%); small on city-lod and serve-vr"
        }
        n if n.starts_with("pipeline.") => {
            "frame_ms_p50/p90, frames_per_s on city-lod (~70%), building-raster; serve-vr latency via service time; no move on qhd-sort"
        }
        "sort.warm_hit_ratio" | "sort.repair_moves_per_warm_tile" => {
            "frame_ms_p50 on city-lod (warm-start cache); no move on qhd-sort and serve-vr, which carry no cache"
        }
        n if n.starts_with("sort.") => {
            "frame_ms_p50, frames_per_s, modeled_dram_mb_per_frame on qhd-sort (~60%); small on city-lod"
        }
        n if n.starts_with("core.") => "frame_ms_p50 on every workload (serve-vr through service time)",
        n if n.starts_with("serve.") => {
            "frame_ms_p50/p90, deadline_met_ratio on serve-vr; no move on the closed loops"
        }
        "sim.dram_mb.sort" => "modeled_dram_mb_per_frame on qhd-sort",
        "sim.dram_mb.feature" => "modeled_dram_mb_per_frame on city-lod",
        "sim.dram_mb.raster" => {
            "modeled_dram_mb_per_frame on city-lod and qhd-sort (table-entry fetches, frame write)"
        }
        n if n.starts_with("sim.") => {
            "no end-to-end move: simulated Neo time follows the counts above"
        }
        _ => "",
    }
}

/// Text table of the per-layer metrics with their predictions.
pub fn layer_table(workload: &str, metrics: &[Metric]) -> String {
    let mut out = format!("per-layer metrics: {workload}\n");
    for m in metrics {
        out.push_str(&format!(
            "  {:<34} {:>16.4} {:<6} -> {}\n",
            m.name,
            m.value,
            m.unit,
            prediction(m.name)
        ));
    }
    out
}
