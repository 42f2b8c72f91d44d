from .flagship import run_flagship_partitioned
from .pipe import pipe, pixel_udf

__all__ = [
    "run_flagship_partitioned",
    "pipe",
    "pixel_udf",
]
