"""rasters_ray — a Ray-Data-native spatial-join + tiling engine.

A from-scratch reimplementation of the query/data-processing capabilities of
``python-rasters/rasters`` (the reference, studied at /root/reference) as
streaming Ray Data pipelines over zero-copy Arrow batches:

- ``grids``    — affine grid / swath georeferencing math (RasterGrid /
  RasterGeolocation semantics: reference rasters/raster_grid.py,
  rasters/raster_geolocation.py), hierarchical cell keys (H3/S2-style
  covering tiles).
- ``proj``     — pure-numpy CRS transforms (WGS84 <-> UTM / AEQD /
  sinusoidal / LCC / Mercator / polar stereographic / Albers) with the
  reference's transform_xy NaN-clipping semantics (rasters/transform_xy.py).
- ``codec``    — image encode/decode (npy raw, stdlib-zlib PNG incl. RGB,
  pure-numpy baseline JPEG), PSNR, and deterministic synthetic tables.
- ``sources``  — GeoTIFF/COG, classic NetCDF + contiguous NetCDF-4/HDF5,
  GeoPackage tiles, GeoJSON, world-file image sinks, and the magic-byte
  ``open_raster`` router with mixed-format Ray ingest.
- ``stages``   — Ray Data operators: tiling, point->cell join, PIP
  broadcast join, kNN resample, composites (merge/mosaic),
  elementwise, focal/terrain/pyramid, zonal stats, colormap rendering.
- ``state``    — broadcastable indexes (STR R-tree, uniform grid kNN index)
  and the sharded spill-to-disk streaming dedup index.
- ``text``     — dedup (exact / MinHash-LSH / SimHash / n-gram Jaccard /
  PPJoin / winnowing / duplicate-substring spans), BPE training, and text
  analysis (langid, quality, tokens, fingerprints).
- ``ann``      — embedding similarity search (brute-force + LSH + IVF +
  PQ-ADC, k-means, PCA) — bit-deterministic across block layouts
  (fixed-point accumulation + fixed-order scoring).
- ``relational``— hash/broadcast/asof/interval/semi/anti joins, exact and
  sketch aggregates, windows, sampling, connected components.
- ``pipelines``— end-to-end flagship pipelines with per-partition
  checkpoint manifests.

Nothing here calls ``ray.init()`` — sessions are owned by the caller
(bench.py, tests/conftest.py, or the driver).
"""

__version__ = "0.1.0"
