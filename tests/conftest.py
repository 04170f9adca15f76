"""Shared test configuration.

The regulated-quadrature engine caches its per-regulator passes inside the
process, so the first test that touches it pays the four passes of the default
schedule (about 0.036 s on 2 vCPUs) and everything after is effectively free.
The acceptance suite clears that cache where a criterion includes its own
runtime budget, so it always measures cold-cache cost.  Predictions and eta
read the exact constant table and run no pass.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
