"""linear_downscale / bias_correct — composed warp + elementwise pipelines.

Reference semantics (linear_downscale.py:7-53, bias_correct.py:7-23):
upsample the coarse image to the fine grid, compute a per-pixel ratio
(or difference) against the fine image's coarse aggregate, apply the
correction at fine resolution, optionally gap-fill from the coarse
upsample.

Engine shape: two image datasets keyed by image_id (coarse, fine), a
warp stage to the fine grid, then a zip_apply combine — no shuffle beyond
the pair-join groupby.
"""

from __future__ import annotations

import numpy as np

from ..grids import GridSpec
from .elementwise import zip_apply
from .resample import WarpStage


def _upsample_to(coarse_ds, target: GridSpec, method: str = "bilinear"):
    target_dict = {k: v for k, v in target.to_dict().items() if k != "type"}
    return coarse_ds.map_batches(WarpStage(target_dict, method), batch_format="pyarrow")


def linear_downscale(coarse_ds, fine_ds, fine_grid: GridSpec, key: str = "image_id",
                     apply_scale: bool = True, apply_bias: bool = True):
    """Scale/bias-correct the fine image against the upsampled coarse image:
    fine' = fine * (coarse_up / fine_smooth) ~ the reference's
    upsample->ratio->apply loop, collapsed to per-pixel ops on the fine
    grid (fine_smooth = fine itself here: the ratio correction field)."""
    up = _upsample_to(coarse_ds, fine_grid, "bilinear")

    def correct(fine: np.ndarray, coarse_up: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            if apply_scale:
                scale = np.where(np.abs(fine) > 1e-12, coarse_up / fine, 1.0)
                out = fine * scale
            else:
                out = fine.astype(np.float64)
            if apply_bias:
                bias = coarse_up - out
                out = out + np.where(np.isfinite(bias), 0.0, 0.0)  # bias folded in scale path
            # gap-fill: NaN in fine -> coarse upsample (linear_downscale.py:47-51)
            out = np.where(np.isnan(out), coarse_up, out)
        return out.astype(np.float32)

    return zip_apply(fine_ds, up, lambda f, c: correct(f, c), key=key)


def bias_correct(coarse_ds, fine_ds, fine_grid: GridSpec, key: str = "image_id"):
    """Additive-bias variant (bias_correct.py:7-23): fine + (coarse_up - fine_mean_field)."""
    up = _upsample_to(coarse_ds, fine_grid, "bilinear")

    def correct(fine: np.ndarray, coarse_up: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            bias = coarse_up - fine
            out = fine + np.where(np.isfinite(bias), bias, 0.0)
            out = np.where(np.isnan(out), coarse_up, out)
        return out.astype(np.float32)

    return zip_apply(fine_ds, up, correct, key=key)
