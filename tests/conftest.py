import os

# One BLAS thread per test process, set before numpy loads: the acceptance
# budgets are wall-clock, and multithreaded BLAS slows sharply when another
# process shares the cores.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from state_transport.suites import random_state, random_unitary  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def make_state():
    return random_state


@pytest.fixture
def make_unitary():
    return random_unitary
