"""GeoParquet read/write (OGC GeoParquet 1.1: parquet files whose
geometry rides a WKB binary column described by a ``geo`` file-metadata
JSON — the cloud-native vector format).

The reference reaches parquet vectors through geopandas
(``gpd.read_parquet``); this engine implements the public spec
directly over pyarrow.parquet + the from-spec WKB codec
(sources/wkb.py), which makes it the most Ray-native vector path in
the engine: the parquet scan is a plain ``ray.data.read_parquet``
(column pruning, predicate pushdown, streaming blocks) and the WKB
decode is one vectorized ``map_batches`` stage.

CRS mapping: the spec's ``crs`` is PROJJSON with ``null`` meaning
OGC:CRS84 (lon/lat — the engine's x/y order). We emit ``null`` for
EPSG:4326 and a minimal PROJJSON ``id`` object for other codes; on
read any ``{"id": {"authority": "EPSG", "code": N}}`` becomes
``EPSG:N`` and null becomes ``EPSG:4326``.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .wkb import table_to_wkb, wkb_column_to_table

_GEO_KEY = b"geo"


def _crs_to_projjson(crs: str) -> Optional[dict]:
    if crs in ("EPSG:4326", "OGC:CRS84"):
        return None  # spec default: CRS84, lon/lat order
    auth, _, code = crs.partition(":")
    return {
        "$schema": "https://proj.org/schemas/v0.7/projjson.schema.json",
        "type": "ProjectedCRS" if auth == "EPSG" and code != "4326"
                else "GeographicCRS",
        "name": crs,
        "id": {"authority": auth or "EPSG", "code": int(code) if
               code.isdigit() else code},
    }


def _projjson_to_crs(obj) -> str:
    if obj is None:
        return "EPSG:4326"
    ident = obj.get("id") if isinstance(obj, dict) else None
    if isinstance(ident, dict) and "code" in ident:
        return f"{ident.get('authority', 'EPSG')}:{ident['code']}"
    name = obj.get("name") if isinstance(obj, dict) else None
    if isinstance(name, str) and ":" in name:
        return name
    raise ValueError(f"GeoParquet crs not identifiable: {str(obj)[:120]}")


_GEOM_NAME = {"point": ["Point", "MultiPoint"],
              "line": ["LineString", "MultiLineString"],
              "poly": ["Polygon", "MultiPolygon"]}


def geoparquet_table(table: pa.Table, geometry_col: str = "geometry"
                     ) -> Tuple[pa.Table, bytes]:
    """Engine vector table -> (arrow table with a WKB geometry column,
    serialized ``geo`` metadata JSON)."""
    ids, blobs, kind, crs = table_to_wkb(table)
    id_name = {"point": "point_id", "poly": "poly_id",
               "line": "line_id"}[kind]
    drop = {id_name, "x", "y", "rings", "paths", "crs"}
    cols: Dict[str, pa.ChunkedArray] = {id_name: pa.array(ids, pa.string())}
    for name in table.column_names:
        if name not in drop:
            cols[name] = table.column(name)
    cols[geometry_col] = pa.array(blobs, pa.binary())
    # bbox over all coordinates (spec: [xmin, ymin, xmax, ymax])
    if kind == "point":
        x = table.column("x").to_numpy()
        y = table.column("y").to_numpy()
    else:
        gc = "rings" if kind == "poly" else "paths"
        flat = table.column(gc).combine_chunks()
        xs, ys = [], []
        for cell in flat.to_pylist():
            for part in cell:
                xs.extend(p["x"] for p in part)
                ys.extend(p["y"] for p in part)
        x = np.array(xs or [0.0])
        y = np.array(ys or [0.0])
    meta = {
        "version": "1.1.0",
        "primary_column": geometry_col,
        "columns": {geometry_col: {
            "encoding": "WKB",
            "geometry_types": _GEOM_NAME[kind],
            "crs": _crs_to_projjson(crs),
            "bbox": [float(np.min(x)), float(np.min(y)),
                     float(np.max(x)), float(np.max(y))],
        }},
    }
    return pa.table(cols), json.dumps(meta, sort_keys=True).encode()


def write_geoparquet(table: pa.Table, path: str,
                     geometry_col: str = "geometry",
                     compression: str = "zstd") -> None:
    """One engine vector table -> one GeoParquet file (atomic via a
    pid-unique temp name, matching the other sinks)."""
    out, geo = geoparquet_table(table, geometry_col)
    schema = out.schema.with_metadata(
        {**(out.schema.metadata or {}), _GEO_KEY: geo})
    tmp = f"{path}.tmp{os.getpid()}"
    pq.write_table(out.cast(schema), tmp, compression=compression)
    os.replace(tmp, path)


def _geo_meta(schema: pa.Schema, path: str) -> Tuple[str, str]:
    """(geometry column, crs) from the ``geo`` schema metadata; a bare
    binary column named 'geometry'/'wkb' is accepted as a fallback
    (files written before the spec landed are common in the wild)."""
    md = schema.metadata or {}
    if _GEO_KEY in md:
        geo = json.loads(md[_GEO_KEY])
        col = geo.get("primary_column") or next(iter(geo["columns"]))
        crs = _projjson_to_crs(geo["columns"][col].get("crs"))
        return col, crs
    for cand in ("geometry", "wkb", "geom"):
        if cand in schema.names and pa.types.is_binary(
                schema.field(cand).type):
            return cand, "EPSG:4326"
    raise ValueError(f"{path}: no 'geo' metadata and no binary "
                     "geometry/wkb/geom column")


def read_geoparquet(path: str, columns: Optional[List[str]] = None
                    ) -> pa.Table:
    """One GeoParquet file -> the engine's vector table (point rows ->
    point_id/x/y/crs; polygons -> rings; lines -> paths). ``columns``
    prunes ATTRIBUTE columns (the id and geometry columns always
    read)."""
    schema = pq.read_schema(path)
    gcol, crs = _geo_meta(schema, path)
    want = None
    if columns is not None:
        want = list(dict.fromkeys(list(columns) + [gcol]))
        for idc in ("point_id", "poly_id", "line_id"):
            if idc in schema.names and idc not in want:
                want.insert(0, idc)
    t = pq.read_table(path, columns=want)
    return decode_geoparquet_batch(t, gcol, crs)


def decode_geoparquet_batch(t: pa.Table, geometry_col: str,
                            crs: str) -> pa.Table:
    """WKB-bearing arrow batch -> engine vector table (the map_batches
    body of the streaming reader)."""
    idc = next((c for c in ("point_id", "poly_id", "line_id")
                if c in t.column_names), None)
    ids = (t.column(idc).to_pylist() if idc
           else [f"gpq{i:06d}" for i in range(t.num_rows)])
    extra = {c: t.column(c).to_pylist() for c in t.column_names
             if c not in (idc, geometry_col)}
    return wkb_column_to_table(
        ids, t.column(geometry_col).to_pylist(), crs=crs, extra=extra)


def _first_file(paths) -> str:
    """The first parquet file of ``paths`` (a file, a directory of
    ``.parquet`` files, or a list of either)."""
    first = paths[0] if isinstance(paths, (list, tuple)) else paths
    if os.path.isdir(first):
        inner = sorted(
            os.path.join(first, f) for f in os.listdir(first)
            if f.endswith(".parquet"))
        if not inner:
            raise ValueError(f"no .parquet files under {first}")
        first = inner[0]
    return first


def _plain(schema: pa.Schema, columns: Optional[List[str]]) -> pa.Schema:
    """``schema`` cut to ``columns`` (in that order), with no key-value
    metadata."""
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return schema.remove_metadata()


def read_parquet(paths, columns: Optional[List[str]] = None, **read_kwargs):
    """``ray.data.read_parquet`` whose blocks carry no schema metadata.

    Unless ``read_kwargs`` has a ``schema``, the read takes the first
    file's footer schema, cut to ``columns``, without its key-value
    metadata (such as pandas' ``b"pandas"`` entry).  A pyarrow schema
    with metadata raises on ``hash()``, and Ray then unifies block
    schemas without its one-schema shortcut.  ``geoparquet_dataset`` and
    the driver contract's table reads go through here."""
    import ray.data as rd

    if "schema" not in read_kwargs:
        read_kwargs["schema"] = _plain(pq.read_schema(_first_file(paths)), columns)
    return rd.read_parquet(paths, columns=columns, **read_kwargs)


def geoparquet_dataset(paths, columns: Optional[List[str]] = None,
                       **read_kwargs):
    """Streaming GeoParquet ingest: a native ``ray.data.read_parquet``
    scan (column pruning at the reader) followed by one vectorized WKB
    decode stage — blocks never funnel through the driver. The ``geo``
    metadata is taken from the first file's FOOTER on the driver (a
    kilobyte read); all files in one call must share the geometry
    column and CRS, the same uniformity contract as vector_dataset."""
    first = _first_file(paths)
    schema = pq.read_schema(first)
    gcol, crs = _geo_meta(schema, first)
    want = None
    if columns is not None:
        want = list(dict.fromkeys(list(columns) + [gcol]))
        for idc in ("point_id", "poly_id", "line_id"):
            if idc in schema.names and idc not in want:
                want.insert(0, idc)

    def decode(batch: pa.Table) -> pa.Table:
        return decode_geoparquet_batch(batch, gcol, crs)

    read_kwargs.setdefault("schema", _plain(schema, want))
    return read_parquet(paths, columns=want, **read_kwargs).map_batches(
        decode, batch_format="pyarrow")


def write_geoparquet_dataset(ds, out_dir: str, prefix: str = "part",
                             geometry_col: str = "geometry"):
    """Distributed GeoParquet sink: one ``out_dir/<prefix>-<firstid>
    .parquet`` per block, written ON ITS WORKER (resumable shard-per-
    block layout, no driver funnel — the same contract as
    write_shapefile_dataset / write_zarr_tiles). Returns the manifest
    Dataset[(path, n_rows)] — consume it to drive the write."""

    def write(batch: pa.Table) -> pa.Table:
        os.makedirs(out_dir, exist_ok=True)
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "n_rows": pa.array([], pa.int64())})
        idcol = next(c for c in ("point_id", "poly_id", "line_id")
                     if c in batch.column_names)
        first = str(batch.column(idcol)[0].as_py()).replace(os.sep, "_")
        p = os.path.join(out_dir, f"{prefix}-{first}.parquet")
        write_geoparquet(batch, p, geometry_col=geometry_col)
        return pa.table({"path": pa.array([p]),
                         "n_rows": pa.array([batch.num_rows], pa.int64())})

    return ds.map_batches(write, batch_format="pyarrow")
