from .composite import (
    composite_cells,
    composite_group,
    merge_mean_lattice,
)
from .point_join import (
    JOIN_SCHEMA,
    PointBuckets,
    assign_cells,
    sample_points,
    sample_points_batch,
)
from .downscale import bias_correct, linear_downscale
from .focal import (
    box_filter_sum,
    focal_halo_tiled,
    focal_stats,
    image_moments,
    pixel_histogram,
)
from .label import label_components, label_runs_min, local_label
from .morphology import morphology_halo_tiled, morphology_stats
from .pyramid import block_reduce_sums, overview_images, overview_stats
from .terrain import horn_numerators, terrain_gradient, terrain_halo_tiled
from .zonal import (
    ZONES_SCHEMA,
    crosstab,
    crosstab_images,
    cut_fill,
    cutfill_images,
    zonal_categorical,
    zonal_stats,
)
from .elementwise import (
    apply_fn,
    clip_values,
    fill_from,
    image_stats,
    mask_nan,
    minmaxstretch,
    percentilecut,
    where_const,
    zip_apply,
)
from .pip import (
    PIP_SCHEMA,
    PolygonSet,
    pip_join,
    point_in_rings,
    rasterize_mask,
)
from .resample import (
    METHOD_TABLE,
    SKIMAGE_ORDERS,
    KNNResampler,
    KNNResampleStage,
    WarpStage,
    reproject,
    resolve_method,
    resize_array,
    utm_target_grid,
    warp_array,
)
from .sampling import band_stack, idw_sample, idw_sample_array, render_png, to_geometry
from .tiling import TILES_SCHEMA, make_tiles, tile_images

__all__ = [
    "ZONES_SCHEMA",
    "crosstab",
    "crosstab_images",
    "cut_fill",
    "cutfill_images",
    "zonal_categorical",
    "zonal_stats",
    "PIP_SCHEMA",
    "PolygonSet",
    "pip_join",
    "point_in_rings",
    "rasterize_mask",
    "KNNResampler",
    "KNNResampleStage",
    "WarpStage",
    "warp_array",
    "SKIMAGE_ORDERS",
    "resize_array",
    "composite_cells",
    "composite_group",
    "merge_mean_lattice",
    "JOIN_SCHEMA",
    "PointBuckets",
    "assign_cells",
    "sample_points",
    "sample_points_batch",
    "block_reduce_sums",
    "overview_images",
    "overview_stats",
    "box_filter_sum",
    "focal_halo_tiled",
    "halo_exchange_tiled",
    "horn_numerators",
    "label_components",
    "label_runs_min",
    "local_label",
    "morphology_halo_tiled",
    "morphology_stats",
    "terrain_gradient",
    "terrain_halo_tiled",
    "focal_stats",
    "image_moments",
    "pixel_histogram",
    "TILES_SCHEMA",
    "make_tiles",
    "tile_images",
]
