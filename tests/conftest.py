import os

# must happen before numpy loads: one BLAS thread, the package default (see
# warpsynth/__init__.py); results are bit-identical with two
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, os.environ.get("WARPSYNTH_THREADS", "1"))

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)
