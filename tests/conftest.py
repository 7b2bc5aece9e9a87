import numpy as np
import pytest
from hypothesis import settings

from ateml.core import Dataset, OutcomeKind
from ateml.core import rng_from

# Property tests draw the same examples on every run, and no example fails for
# running slowly: timings on a shared host vary by a quarter from run to run.
settings.register_profile("ateml", derandomize=True, deadline=None)
settings.load_profile("ateml")


def make_confounded(n=300, seed=0, tau=1.0, noise=1.0):
    """Small confounded sample: binary x1 drives both treatment and outcome."""
    rng = rng_from(seed)
    x1 = (rng.random(n) < 0.5).astype(float)
    x2 = rng.standard_normal(n)
    x3 = rng.standard_normal(n)
    ps = 1.0 / (1.0 + np.exp(-(0.9 * x1 - 0.4)))
    A = (rng.random(n) < ps).astype(int)
    y = tau * A + 1.2 * x1 + 0.5 * x2 + noise * rng.standard_normal(n)
    X = np.column_stack([x1, x2, x3])
    ds = Dataset(X, A, y, OutcomeKind.bounded(float(y.min()), float(y.max())))
    return ds, ps


@pytest.fixture
def confounded_dataset():
    ds, _ = make_confounded(seed=42)
    return ds
