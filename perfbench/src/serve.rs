//! serve-vr: an open loop of staggered sessions served in real time by
//! `ServeDriver::run_real_clock` under earliest-deadline-first, on the
//! driver's single thread.

use crate::closed::{
    self, psnr_db, raster_config, reference_mse, SetUpReps, SETUP, TAIL_SAMPLES, TRACED_SETUP,
};
use crate::layers::{self, ServeLayer};
use crate::probe;
use crate::recompose::Recomposer;
use crate::stats::{self, beyond, median, percentile};
use crate::trace::{Tracer, NO_FRAME};
use crate::workload::{session_camera, ServeSpec};
use crate::{guard, Metric, Outcome};
use neo_core::{RenderEngine, RenderSession, StrategyKind, TemporalCacheStats};
use neo_scene::io::encode_cloud;
use neo_serve::{DeadlineEdf, ServeConfig, ServeDriver, ServeReport};

/// The engine builder's default strategy, which serve-vr renders with.
const SERVE_KIND: StrategyKind = StrategyKind::ReuseUpdate;
/// Frames per session whose image is compared with the reference.
const PSNR_FRAMES_PER_SESSION: u32 = 4;
/// Served frames (in schedule order) written to the Chrome trace.
const CHROME_FRAMES: u64 = 32;

/// The shared set-up, ending with the first session's first frame.
fn set_up(
    plan: SetUpReps,
    bytes: &[u8],
    spec: &ServeSpec,
    t: &mut Tracer,
) -> Result<(RenderEngine, Vec<f64>), String> {
    let first = session_camera(&spec.trajectory, &spec.sessions[0], 0);
    closed::set_up(plan, bytes, &spec.config, SERVE_KIND, &first, t)
}

fn serve(engine: &RenderEngine, spec: &ServeSpec) -> Result<ServeReport, String> {
    ServeDriver::new(engine, spec.trajectory.clone(), ServeConfig::default())
        .and_then(|d| d.run_real_clock(&spec.sessions, &mut DeadlineEdf::new()))
        .map_err(|e| format!("serve: {e}"))
}

/// Admission and completion invariants of a serve report.
fn check_report(spec: &ServeSpec, report: &ServeReport) -> Vec<String> {
    let mut failures = Vec::new();
    let a = &report.admission;
    if a.offered != spec.sessions.len() as u64 || a.offered != a.admitted + a.rejected {
        failures.push(format!(
            "offered {} != admitted {} + rejected {}",
            a.offered, a.admitted, a.rejected
        ));
    }
    if report.sessions.len() as u64 != a.admitted {
        failures.push(format!(
            "{} admitted sessions but {} reports",
            a.admitted,
            report.sessions.len()
        ));
    }
    for s in &report.sessions {
        if s.frames_completed != s.frames_requested {
            failures.push(format!(
                "session {} completed {} of {} frames",
                s.id, s.frames_completed, s.frames_requested
            ));
        }
    }
    failures
}

/// Probes run before the first segment and after each one.
const PROBES_PER_BLOCK: u32 = 40;

fn probe_block() -> Vec<f64> {
    (0..PROBES_PER_BLOCK).map(probe::run).collect()
}

/// The untraced run: `spec.segments` serve runs back to back, each put
/// at the reference machine speed with the probes on both sides of it.
pub fn run(spec: &ServeSpec) -> Result<Outcome, String> {
    let bytes = encode_cloud(&spec.scene);
    let mut off = Tracer::new(false);
    let (engine, setups) = set_up(SETUP, &bytes, spec, &mut off)?;

    let mut probes = vec![probe_block()];
    let mut reports = Vec::with_capacity(spec.segments);
    for _ in 0..spec.segments {
        reports.push(serve(&engine, spec)?);
        probes.push(probe_block());
    }
    let mut failures: Vec<String> = reports.iter().flat_map(|r| check_report(spec, r)).collect();

    // Each session replayed serially by the outside-in recomposition:
    // its totals must equal what every segment's served session
    // reported. (The traced run compares every served frame with the
    // recomposition one by one.)
    let raster_cfg = raster_config(&spec.config);
    let mut bytes_per_frame = Vec::new();
    let mut mse = Vec::new();
    for s in &spec.sessions {
        let mut recomposer = Recomposer::new(&engine, SERVE_KIND);
        let (mut work, mut temporal) = (0u64, TemporalCacheStats::default());
        let mut projected = Vec::new();
        let mut cams = Vec::new();
        for f in 0..s.frames {
            let cam = session_camera(&spec.trajectory, s, f);
            let fr = recomposer.render(&cam, &mut off, u64::from(f), false);
            work += fr.work_units();
            temporal += fr.temporal;
            projected.push(fr.stats.projected);
            if f > 0 {
                bytes_per_frame.push(fr.stats.traffic.total() as f64);
            }
            if f > 0 && f % (s.frames / PSNR_FRAMES_PER_SESSION).max(1) == 0 {
                if let Some(img) = &fr.image {
                    mse.push(reference_mse(&engine, &raster_cfg, &cam, img));
                }
            }
            cams.push(cam);
        }
        for served in reports.iter().flat_map(|r| r.sessions.iter()) {
            if served.id == s.id && (work != served.work_units || temporal != served.temporal) {
                failures.push(format!(
                    "session {}: served frames differ from the recomposed replay",
                    s.id
                ));
            }
        }
        failures.extend(guard::on_scene(
            &format!("serve-vr session {}", s.id),
            &cams,
            &projected,
            guard::ORBIT_BAND,
        ));
    }
    let psnr = psnr_db(&mse);
    if psnr.is_nan() || psnr < spec.psnr_floor {
        failures.push(format!(
            "psnr {psnr:.2} dB below the {} dB floor",
            spec.psnr_floor
        ));
    }

    let (mut latency_ms, mut wall_ms) = (Vec::new(), Vec::new());
    for (k, report) in reports.iter().enumerate() {
        let scale = probe::to_reference(&[&probes[k][..], &probes[k + 1][..]].concat());
        for us in report.sessions.iter().flat_map(|s| &s.latencies_us) {
            wall_ms.push(*us as f64 / 1e3);
            latency_ms.push(*us as f64 / 1e3 * scale);
        }
    }
    let per_segment: u64 = spec.sessions.iter().map(|s| u64::from(s.frames)).sum();
    let offered = per_segment * reports.len() as u64;
    let refused: u64 = reports
        .iter()
        .flat_map(|r| spec.sessions.iter().filter(|s| r.rejected.contains(&s.id)))
        .map(|s| u64::from(s.frames))
        .sum();
    let missed = reports
        .iter()
        .map(ServeReport::missed_deadlines)
        .sum::<u64>()
        + refused;
    let served: u64 = reports.iter().map(ServeReport::frames_served).sum();
    let makespan_s = reports
        .iter()
        .map(|r| r.makespan_us as f64 / 1e6)
        .sum::<f64>();
    let tail = beyond(&latency_ms, 90.0);
    if tail < TAIL_SAMPLES {
        failures.push(format!("only {tail} samples beyond p90"));
    }
    let metrics = vec![
        Metric::new("frame_ms_p50", "ms", median(&latency_ms)),
        Metric::new("frame_ms_p90", "ms", percentile(&latency_ms, 90.0)),
        Metric::new("frames_per_s", "1/s", served as f64 / makespan_s),
        Metric::new(
            "deadline_met_ratio",
            "ratio",
            1.0 - missed as f64 / offered as f64,
        ),
        Metric::new(
            "modeled_dram_mb_per_frame",
            "MB",
            stats::mean(&bytes_per_frame) / 1e6,
        ),
        Metric::new("psnr_db", "dB", psnr),
        Metric::new("setup_s", "s", median(&setups)),
        Metric::new("peak_rss_mb", "MB", stats::peak_rss_mb()),
    ];
    Ok(Outcome {
        metrics,
        attempted: offered as usize,
        failed: refused as usize,
        failures,
        wall: vec![
            ("frame_ms_p50", median(&wall_ms)),
            ("frame_ms_p90", percentile(&wall_ms, 90.0)),
        ],
        samples: vec![
            ("frame_ms", latency_ms.len()),
            ("frame_ms_beyond_p90", tail),
            ("setup_s", setups.len()),
            ("sessions", spec.sessions.len()),
            ("segments", reports.len()),
            ("psnr_frames", mse.len()),
        ],
        trace: None,
    })
}

/// The traced run: the serve layer's figures from the real-clock
/// schedule, then every served frame replayed in schedule order — the
/// sessions' tile tables interleaved as the server ran them — by the
/// engine and by the outside-in recomposition.
pub fn run_traced(spec: &ServeSpec) -> Result<Outcome, String> {
    let bytes = encode_cloud(&spec.scene);
    let mut t = Tracer::new(true);
    let (engine, _) = set_up(TRACED_SETUP, &bytes, spec, &mut t)?;

    let report = serve(&engine, spec)?;
    let mut failures = check_report(spec, &report);
    let events = &report.trace.events;
    let serve_layer = ServeLayer {
        queue_wait_ms: events
            .iter()
            .map(|e| e.start_us.saturating_sub(e.release_us) as f64 / 1e3)
            .collect(),
        service_ms: events.iter().map(|e| e.cost_us as f64 / 1e3).collect(),
        admitted: report.admission.admitted,
        rejected: report.admission.rejected,
        frames_per_tick: events.len() as f64 / report.ticks.max(1) as f64,
        deadline_miss_ratio: report.missed_deadlines() as f64 / events.len().max(1) as f64,
    };

    let mut sessions: Vec<(RenderSession, Recomposer)> = spec
        .sessions
        .iter()
        .map(|s| {
            (
                engine.session_with_id(s.id),
                Recomposer::new(&engine, SERVE_KIND),
            )
        })
        .collect();
    let mut records = Vec::new();
    for e in events {
        let Some(k) = spec.sessions.iter().position(|s| s.id == e.session) else {
            failures.push(format!("event for unknown session {}", e.session));
            continue;
        };
        let s = &spec.sessions[k];
        let cam = session_camera(&spec.trajectory, s, e.frame);
        let (session, recomposer) = &mut sessions[k];
        let fr = t
            .time("core.render_frame", e.seq, || session.render_frame(&cam))
            .map_err(|err| err.to_string())?;
        let rebuilt = recomposer.render(&cam, &mut t, e.seq, false);
        if rebuilt != fr {
            failures.push(format!(
                "session {} frame {}: recomposition differs",
                s.id, e.frame
            ));
        }
        if e.frame > 0 {
            let pixels = u64::from(s.width) * u64::from(s.height);
            records.push(layers::record(
                &mut t,
                e.seq,
                fr,
                engine.storage().as_ref(),
                pixels,
            ));
        }
    }
    let metrics = layers::layer_metrics(&t, &records, &serve_layer);
    let chrome = t.chrome_json(|f| f == NO_FRAME || f < CHROME_FRAMES);
    Ok(Outcome {
        metrics,
        attempted: events.len(),
        failed: 0,
        failures,
        wall: Vec::new(),
        samples: vec![("traced_frames", records.len()), ("events", events.len())],
        trace: Some(chrome),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{serve_spec, Size};

    #[test]
    fn reduced_serve_passes_the_gate_and_traced_parity() {
        let spec = serve_spec(5, 0.0, Size::Reduced);
        let untraced = run(&spec).expect("untraced run");
        assert!(untraced.failures.is_empty(), "{:?}", untraced.failures);
        crate::assert_matches_benchmark(&untraced.metrics, "end_to_end");
        let traced = run_traced(&spec).expect("traced run");
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        crate::assert_matches_benchmark(&traced.metrics, "per_layer");
        let admitted = traced.metrics.iter().find(|m| m.name == "serve.admitted");
        assert_eq!(admitted.map(|m| m.value), Some(8.0));
    }
}
