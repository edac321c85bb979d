//! The outside-in frame: one serial frame rebuilt from the layers'
//! public functions, with a span around every call into a layer.
//!
//! `Recomposer::render` follows `RenderSession::render_frame` on the
//! serial path step for step — project, bin, one sorting strategy per
//! occupied tile (wrapped in a `WarmStartSorter` when configured, with
//! the LOD tag diff driving `invalidate_cache`), then `rasterize_direct`
//! per tile — so its `FrameResult` must equal the engine's exactly. The
//! benchmark checks that on every frame; a mismatch means the spans no
//! longer describe the frame the engine renders.

use crate::trace::Tracer;
use neo_core::{
    FrameResult, RenderEngine, RendererConfig, StrategyKind, TemporalCacheStats, TileLoad,
};
use neo_pipeline::{
    bin_to_tiles, bin_to_tiles_with_clusters, project_clusters, project_storage, ClusterProjection,
    FrameStats, Image, ProjectedGaussian, RenderConfig, ShardScratch, Stage, TileGrid,
};
use neo_scene::{Camera, CloudStorage, ClusteredCloud};
use neo_sort::{SortCost, SortingStrategy, WarmStartSorter};
use std::sync::Arc;

struct TileSlot {
    strategy: Box<dyn SortingStrategy>,
    next_frame: u64,
    prev_tags: Vec<u32>,
}

/// Per-session state of the rebuilt frame: the tile grid, one strategy
/// per occupied tile, and the raster scratch.
pub struct Recomposer {
    config: RendererConfig,
    kind: StrategyKind,
    storage: Arc<dyn CloudStorage>,
    index: Option<Arc<ClusteredCloud>>,
    grid: Option<TileGrid>,
    tiles: Vec<Option<TileSlot>>,
    scratch: ShardScratch,
    extra_image: Option<Image>,
}

/// Whether a cluster present in both sorted tag sets flipped between
/// proxy and member rendering (tag = `cluster << 1 | proxy_bit`).
fn lod_tags_flipped(prev: &[u32], cur: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < cur.len() {
        match (prev[i] >> 1).cmp(&(cur[j] >> 1)) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if prev[i] != cur[j] {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

impl Recomposer {
    /// A fresh session over `engine`'s storage and cluster index, sorting
    /// with `kind` (the strategy the engine was built with).
    pub fn new(engine: &RenderEngine, kind: StrategyKind) -> Self {
        Self {
            config: engine.config().clone(),
            kind,
            storage: Arc::clone(engine.storage()),
            index: engine.lod_index().cloned(),
            grid: None,
            tiles: Vec::new(),
            scratch: ShardScratch::new(),
            extra_image: None,
        }
    }

    /// The image rendered by the last `render` call that asked for one
    /// on a configuration that renders none.
    pub fn take_image(&mut self) -> Option<Image> {
        self.extra_image.take()
    }

    fn new_strategy(&self) -> Box<dyn SortingStrategy> {
        let inner = self.kind.build(self.config.sorter_config());
        match self.config.temporal_cache {
            Some(warm) => Box::new(WarmStartSorter::new(inner, warm)),
            None => inner,
        }
    }

    /// Renders one frame; `frame` tags the spans. With `want_image` on a
    /// configuration without images, the frame is also rasterized into
    /// an image kept for `take_image`, and the returned result still
    /// matches the engine's.
    pub fn render(
        &mut self,
        cam: &Camera,
        t: &mut Tracer,
        frame: u64,
        want_image: bool,
    ) -> FrameResult {
        let root = t.begin("frame.recomposed", frame);
        let config = self.config.clone();
        let grid = TileGrid::new(cam.width, cam.height, config.tile_size);
        if self.grid != Some(grid) {
            self.tiles.clear();
            self.tiles.resize_with(grid.tile_count(), || None);
            self.grid = Some(grid);
        }
        let storage = Arc::clone(&self.storage);
        let lod = config.lod.as_ref().zip(self.index.clone());

        let mut stats = FrameStats {
            input: storage.len(),
            ..Default::default()
        };
        let feature_bytes = storage.record_bytes() as u64;
        let mut records_read = storage.len() as u64;
        let (projected, assignments, tile_tags) = match &lod {
            Some((lod_cfg, index)) => {
                let ClusterProjection {
                    projected,
                    tags,
                    clusters_total,
                    clusters_culled,
                    clusters_proxied,
                    splats_saved,
                    splats_visited,
                } = t.time("pipeline.project", frame, || {
                    project_clusters(cam, storage.as_ref(), index, lod_cfg)
                });
                stats.clusters_total = clusters_total;
                stats.clusters_culled = clusters_culled;
                stats.clusters_lod = clusters_proxied;
                stats.lod_splats_saved = splats_saved;
                records_read = splats_visited;
                let (assignments, tile_tags) = t.time("pipeline.bin", frame, || {
                    bin_to_tiles_with_clusters(&grid, &projected, &tags)
                });
                (projected, assignments, Some(tile_tags))
            }
            None => {
                let projected = t.time("pipeline.project", frame, || {
                    project_storage(cam, storage.as_ref())
                });
                let assignments = t.time("pipeline.bin", frame, || bin_to_tiles(&grid, &projected));
                (projected, assignments, None)
            }
        };

        let by_id = t.time("core.by_id", frame, || {
            let id_space = storage.len() + lod.as_ref().map_or(0, |(_, i)| i.proxy_count());
            let mut by_id: Vec<Option<usize>> = vec![None; id_space];
            for (i, p) in projected.iter().enumerate() {
                by_id[p.id as usize] = Some(i);
            }
            by_id
        });
        let occupied: Vec<(usize, &[(u32, f32)])> = assignments.iter_occupied().collect();
        stats.projected = projected.len();
        stats.duplicates = assignments.total_assignments();
        stats.occupied_tiles = occupied.len();
        stats
            .traffic
            .read(Stage::FeatureExtraction, records_read * feature_bytes);

        let raster_cfg = RenderConfig {
            tile_size: config.tile_size,
            background: config.background,
            subtiling: config.subtiling,
            raster_fast_path: config.raster_fast_path,
            ..RenderConfig::default()
        };

        let create = t.begin("core.strategy_create", frame);
        for &(tile, _) in &occupied {
            if self.tiles[tile].is_none() {
                self.tiles[tile] = Some(TileSlot {
                    strategy: self.new_strategy(),
                    next_frame: 0,
                    prev_tags: Vec::new(),
                });
            }
        }
        t.end(create);

        let mut image = (config.render_image || want_image)
            .then(|| Image::new(cam.width, cam.height, config.background));
        let mut sort_cost = SortCost::new();
        let (mut incoming, mut outgoing) = (0usize, 0usize);
        let mut tile_loads = Vec::with_capacity(occupied.len());
        let mut temporal = TemporalCacheStats::default();
        for &(tile, entries) in &occupied {
            let slot = self.tiles[tile].as_mut().expect("created above");
            if let Some(all_tags) = &tile_tags {
                let cur = &all_tags[tile];
                if lod_tags_flipped(&slot.prev_tags, cur) {
                    slot.strategy.invalidate_cache();
                }
                slot.prev_tags.clear();
                slot.prev_tags.extend_from_slice(cur);
            }
            let order = t.time("sort.order", frame, || {
                slot.strategy.begin_frame(slot.next_frame);
                slot.strategy.order(entries)
            });
            slot.next_frame += 1;
            sort_cost += order.cost;
            incoming += order.incoming;
            outgoing += order.outgoing;
            stats.traffic.read(Stage::Sorting, order.cost.bytes_read);
            stats
                .traffic
                .write(Stage::Sorting, order.cost.bytes_written);
            tile_loads.push(TileLoad {
                tile: tile as u32,
                table_len: order.order.len() as u32,
                incoming: order.incoming as u32,
                outgoing: order.outgoing as u32,
            });
            if let Some(reuse) = order.reuse {
                if reuse.warm {
                    temporal.warm_tiles += 1;
                    temporal.reused_entries += reuse.reused as u64;
                    temporal.repair_moves += reuse.repair_moves;
                } else {
                    temporal.cold_tiles += 1;
                }
            }
            stats.traffic.read(
                Stage::Rasterization,
                order.order.len() as u64 * feature_bytes,
            );
            if let Some(img) = image.as_mut() {
                let blend: Vec<&ProjectedGaussian> = t.time("core.blend_list", frame, || {
                    order
                        .order
                        .iter()
                        .filter(|e| e.valid)
                        .filter_map(|e| by_id.get(e.id as usize).copied().flatten())
                        .map(|i| &projected[i])
                        .collect()
                });
                let scratch = &mut self.scratch;
                let ts = t.time("pipeline.raster", frame, || {
                    scratch.rasterize_direct(img, &grid, tile, &blend, &raster_cfg)
                });
                if config.render_image {
                    stats.blend_ops += ts.blend_ops;
                    stats.saturated_pixels += ts.saturated_pixels;
                    stats.pixel_visits += ts.pixel_visits;
                }
            }
        }
        stats.traffic.write(
            Stage::Rasterization,
            u64::from(cam.width) * u64::from(cam.height) * 4,
        );
        t.end(root);
        if !config.render_image {
            self.extra_image = image.take();
        }
        FrameResult {
            image,
            stats,
            sort_cost,
            incoming,
            outgoing,
            tile_loads,
            temporal,
        }
    }
}

/// Names of the spans a recomposed frame is made of, for coverage.
pub const FRAME_PARTS: [&str; 7] = [
    "pipeline.project",
    "pipeline.bin",
    "core.by_id",
    "core.strategy_create",
    "sort.order",
    "core.blend_list",
    "pipeline.raster",
];

/// The layer spans whose sum `core.self_ms` subtracts from the engine's
/// frame: what remains is the engine's own work (by-id index, strategy
/// creation, blend lists, framebuffer set-up).
pub const LAYER_PARTS: [&str; 4] = [
    "pipeline.project",
    "pipeline.bin",
    "sort.order",
    "pipeline.raster",
];
