//! Order statistics, the frame digest behind the correctness gate, and
//! the few facts read from the host (`/proc`) that a result records.

use neo_core::FrameResult;

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (50th percentile) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples strictly above the `p`-th percentile: a percentile is only
/// reported when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

/// FNV-1a over 64-bit words; the digest only has to tell two frames
/// apart, not resist an adversary.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything a frame reports: image bytes, `FrameStats`,
/// `SortCost`, `TemporalCacheStats`, and the per-tile loads.
pub fn frame_digest(fr: &FrameResult) -> u64 {
    let mut d = Digest::new();
    match &fr.image {
        Some(img) => {
            d.word(u64::from(img.width()) << 32 | u64::from(img.height()));
            for px in img.pixels() {
                d.word(u64::from(px.x.to_bits()) << 32 | u64::from(px.y.to_bits()));
                d.word(u64::from(px.z.to_bits()));
            }
        }
        None => d.word(u64::MAX),
    }
    let s = &fr.stats;
    for w in [
        s.input as u64,
        s.projected as u64,
        s.duplicates as u64,
        s.occupied_tiles as u64,
        s.blend_ops,
        s.saturated_pixels,
        s.pixel_visits,
        s.clusters_total,
        s.clusters_culled,
        s.clusters_lod,
        s.lod_splats_saved,
    ] {
        d.word(w);
    }
    for stage in neo_pipeline::Stage::ALL {
        d.word(s.traffic.reads(stage));
        d.word(s.traffic.writes(stage));
    }
    let c = &fr.sort_cost;
    for w in [
        c.compares,
        c.moves,
        c.bytes_read,
        c.bytes_written,
        u64::from(c.passes),
    ] {
        d.word(w);
    }
    let t = &fr.temporal;
    for w in [
        t.warm_tiles,
        t.cold_tiles,
        t.reused_entries,
        t.repair_moves,
        fr.incoming as u64,
        fr.outgoing as u64,
    ] {
        d.word(w);
    }
    for load in &fr.tile_loads {
        d.word(u64::from(load.tile) << 32 | u64::from(load.table_len));
        d.word(u64::from(load.incoming) << 32 | u64::from(load.outgoing));
    }
    d.finish()
}

/// Mean modeled DRAM traffic of `frames` in MB (10^6 bytes).
pub fn dram_mb_per_frame<'a>(frames: impl IntoIterator<Item = &'a FrameResult>) -> f64 {
    let bytes: Vec<f64> = frames
        .into_iter()
        .map(|f| f.stats.traffic.total() as f64)
        .collect();
    mean(&bytes) / 1e6
}

/// Peak resident set of this process (`VmHWM`) in MB, 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(beyond(&v, 90.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn digest_tells_words_apart() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
