

def test_crosstab_bruteforce():
    import numpy as np

    from rasters_ray.stages.zonal import crosstab

    rng = np.random.default_rng(17)
    z = rng.integers(0, 5, (9, 11))
    c = rng.integers(0, 7, (9, 11))
    t = crosstab(z, c).to_pydict()
    got = {(zz, kk): nn for zz, kk, nn
           in zip(t["zone"], t["klass"], t["n_px"])}
    exp = {}
    for i in range(9):
        for j in range(11):
            exp[(z[i, j], c[i, j])] = exp.get((z[i, j], c[i, j]), 0) + 1
    assert got == exp
    # sorted by (zone, class)
    pairs = list(zip(t["zone"], t["klass"]))
    assert pairs == sorted(pairs)


def test_crosstab_errors():
    import numpy as np
    import pytest

    from rasters_ray.stages.zonal import crosstab

    with pytest.raises(ValueError):
        crosstab(np.zeros((2, 2), int), np.zeros((3, 2), int))
    with pytest.raises(ValueError):
        crosstab(np.array([[-1]]), np.array([[0]]))


def test_crosstab_images_distributed(ray_session):
    import numpy as np

    from rasters_ray.sources.images import make_oracle_images, oracle_pixels
    from rasters_ray.stages import crosstab_images

    import ray.data as rd

    ids = np.arange(6)
    ds = rd.from_arrow(make_oracle_images(ids))

    def classify(arr):
        v = np.rint(arr).astype(np.int64)
        return v // 51, v % 7

    got = crosstab_images(ds, classify).to_pandas()
    got = got.sort_values(["zone", "klass"]).reset_index(drop=True)

    exp = {}
    for d in ids:
        v = oracle_pixels(int(d)).astype(np.int64)
        for z, k in zip((v // 51).ravel(), (v % 7).ravel()):
            exp[(z, k)] = exp.get((z, k), 0) + 1
    assert len(got) == len(exp)
    for _, row in got.iterrows():
        assert exp[(row["zone"], row["klass"])] == row["n_px"]


_CROSSTAB_1CPU = """
import json
import numpy as np
import ray
import ray.data as rd

from rasters_ray.sources.images import make_oracle_images
from rasters_ray.stages import crosstab_images

ray.init(address="local", num_cpus=1, include_dashboard=False)
rd.DataContext.get_current().enable_progress_bars = False

def classify(arr):
    v = np.rint(arr).astype(np.int64)
    return v // 51, v % 7

got = crosstab_images(rd.from_arrow(make_oracle_images(np.arange(4))), classify).to_pandas()
print(json.dumps([[int(z), int(k), int(n)] for z, k, n in got[["zone", "klass", "n_px"]].to_numpy()]))
ray.shutdown()
"""


def test_crosstab_images_one_cpu_session():
    """The crosstab stage reserves no actor pool, so it finishes in a
    session with one CPU (a fixed pool of 4 actors could never start)."""
    import json
    import os
    import subprocess
    import sys

    import numpy as np

    from rasters_ray.sources.images import oracle_pixels

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run([sys.executable, "-c", _CROSSTAB_1CPU], cwd=repo, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "may hang forever" not in proc.stdout + proc.stderr
    got = {(z, k): n for z, k, n in json.loads(proc.stdout.strip().splitlines()[-1])}
    exp = {}
    for d in range(4):
        v = oracle_pixels(d).astype(np.int64)
        for z, k in zip((v // 51).ravel(), (v % 7).ravel()):
            exp[(int(z), int(k))] = exp.get((int(z), int(k)), 0) + 1
    assert got == exp


def test_zonal_categorical_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from rasters_ray.sources.images import make_oracle_images, oracle_pixels
    from rasters_ray.stages import zonal_categorical

    ids = np.arange(4)
    ds = rd.from_arrow(make_oracle_images(ids))
    # two zones: one inside image 0's grid, one spanning several
    zones = pa.table({
        "zone_id": pa.array([7, 9], pa.int64()),
        "xmin": pa.array([-123.9, -124.2], pa.float64()),
        "ymin": pa.array([43.5, 42.8], pa.float64()),
        "xmax": pa.array([-123.7, -122.3], pa.float64()),
        "ymax": pa.array([43.8, 44.2], pa.float64()),
    })
    got = zonal_categorical(ds, zones).to_pandas()
    got = got.set_index("zone_id").sort_index()

    # brute force over pixel centers
    from rasters_ray.sources.images import oracle_grid_origin
    acc = {7: {}, 9: {}}
    for d in ids:
        px = oracle_pixels(int(d)).astype(np.int64)
        x0, y0 = oracle_grid_origin(int(d))
        cx = x0 + (np.arange(100) + 0.5) * 0.01
        cy = y0 - (np.arange(100) + 0.5) * 0.01
        for zi, (zid, xm, ym, xM, yM) in enumerate(zip(
                zones["zone_id"].to_pylist(), zones["xmin"].to_pylist(),
                zones["ymin"].to_pylist(), zones["xmax"].to_pylist(),
                zones["ymax"].to_pylist())):
            mx = (cx >= xm) & (cx <= xM)
            my = (cy >= ym) & (cy <= yM)
            for v in px[np.ix_(my, mx)].ravel():
                acc[zid][int(v)] = acc[zid].get(int(v), 0) + 1
    for zid, cnts in acc.items():
        if not cnts:
            assert zid not in got.index
            continue
        row = got.loc[zid]
        assert row["variety"] == len(cnts)
        assert row["vmin"] == min(cnts)
        assert row["vmax"] == max(cnts)
        maj = min(sorted(cnts), key=lambda v: (-cnts[v], v))
        mino = min(sorted(cnts), key=lambda v: (cnts[v], v))
        assert (row["majority"], row["majority_n"]) == (maj, cnts[maj])
        assert (row["minority"], row["minority_n"]) == (mino, cnts[mino])


def test_cut_fill_bruteforce_and_errors():
    import numpy as np
    import pytest

    from rasters_ray.stages.zonal import cut_fill

    rng = np.random.default_rng(19)
    a = rng.integers(0, 40, (9, 7))
    b = rng.integers(0, 40, (9, 7))
    st = cut_fill(a, b)
    d = a.astype(np.int64) - b
    assert st["cut"] == d[d > 0].sum()
    assert st["fill"] == -d[d < 0].sum()
    assert st["net"] == d.sum() == st["cut"] - st["fill"]
    assert st["n_cut"] + st["n_fill"] + st["n_same"] == a.size
    with pytest.raises(ValueError):
        cut_fill(a, b[:4])
    with pytest.raises(ValueError):
        cut_fill(a * 0.5, b)
