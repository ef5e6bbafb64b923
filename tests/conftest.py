import os

# One BLAS thread per test process, as in the benchmark.  This must run
# before numpy is imported; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from xlbeam import ArrayConfig, build_hybrid_codebook, build_subarray_codebook  # noqa: E402
from xlbeam.harness import experiments  # noqa: E402
from xlbeam.training import design_all  # noqa: E402

PAPER_WAVELENGTH = 0.003


@pytest.fixture(scope="session")
def cfg512():
    return ArrayConfig(n_antennas=512, n_rf=4, wavelength=PAPER_WAVELENGTH)


@pytest.fixture(scope="session")
def cfg256():
    return ArrayConfig(n_antennas=256, n_rf=4, wavelength=PAPER_WAVELENGTH)


@pytest.fixture(scope="session")
def cfg128():
    """Desk-scale configuration used by the fast Monte Carlo tests."""
    return ArrayConfig(n_antennas=128, n_rf=4, wavelength=PAPER_WAVELENGTH)


@pytest.fixture(scope="session")
def desk_workspace(cfg128):
    """Desk-scale codebook (Q=128, S=3 from the density bound) plus design."""
    book = build_hybrid_codebook(cfg128, 128, 3)
    sub = build_subarray_codebook(cfg128)
    return book, sub, design_all(book, sub)


@pytest.fixture(scope="session")
def full_workspace(cfg512):
    """Full-scale codebook at the reference settings (Q=512, S=11): the
    harness's cached workspace, so a run holds one reference codebook."""
    return experiments.workspace(cfg512, 512, 11)


@pytest.fixture()
def rng():
    return np.random.default_rng(0xA11CE)
