"""The test oracles against their own cross-checks."""

import numpy as np
import pytest

from oracle import blocked_kernel_action, kernel_action
from wienerdr.spectral import ProcessParams


@pytest.mark.parametrize("n,grid_points", [(1, 50), (3, 64), (8, 101)])
def test_kernel_prefix_sums_match_blocked_product(n, grid_points):
    params = ProcessParams(sigma2=1.7, fs=2.5)
    t = np.arange(n * grid_points + 1) * (params.ts / grid_points)
    f = np.random.default_rng(n).standard_normal(len(t))
    fast = kernel_action(params, grid_points, t, f)
    dense = blocked_kernel_action(params, t, f)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))
