"""Shared example laws used across the test suite.

Frozen reference quantities (growth factors, root locations, limiting
variances) for these laws are derived by hand in the test modules that use
them; the fixtures only build the law objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from cmjfluct import make_law


@pytest.fixture
def gw13():
    """Single-age law: 1 or 3 children at age 1, equiprobable.  m = 2, no extra roots."""
    return make_law([(0.5, (1,)), (0.5, (3,))])


@pytest.fixture
def law_i():
    """Two-age law with mu = (2, 1), sigma_11 = 1: regime I (Gaussian, sqrt(Z_n) scale)."""
    return make_law([(0.5, (1, 1)), (0.5, (3, 1))])


@pytest.fixture
def law_ii():
    """Two-age law with mu = (2, 8), sigma_11 = 1: regime II (critical circle root -1/2)."""
    return make_law([(0.5, (1, 8)), (0.5, (3, 8))])


@pytest.fixture
def law_iii():
    """Two-age law with mu = (1, 9), sigma_11 = 1: regime III (oscillating fluctuations)."""
    return make_law([(0.5, (0, 9)), (0.5, (2, 9))])


@pytest.fixture
def det_gw():
    """Deterministic doubling at age 1: Sigma identically zero."""
    return make_law([(1.0, (2,))])


@pytest.fixture
def det_two_age():
    """Deterministic law bearing one child at age 1 and two at age 2."""
    return make_law([(1.0, (1, 2))])


@pytest.fixture
def nonsimple_ii():
    """Deterministic law with a double root at -1/2: 12 children at age 2, 16 at age 3."""
    return make_law([(1.0, (0, 12, 16))])


@pytest.fixture
def pair_ii():
    """Three-age law with mu = (2, 4, 16), m = 4: regime II at the conjugate pair -1/4 +- i sqrt(3)/4."""
    return make_law([(0.5, (1, 4, 16)), (0.5, (3, 4, 16))])


@pytest.fixture
def degenerate_ii():
    """Regime-II law whose litter noise vanishes at the critical root (N_2 = 2 N_1 + 4)."""
    return make_law([(0.5, (1, 6)), (0.5, (3, 10))])


@pytest.fixture
def gw13_coin():
    """gw13 with an independent centered coin scored at age 0 only."""
    return make_law(
        [
            (0.25, (1,), (1.0,)),
            (0.25, (1,), (-1.0,)),
            (0.25, (3,), (1.0,)),
            (0.25, (3,), (-1.0,)),
        ]
    )


@pytest.fixture
def gw13_deaths():
    """gw13 scored 1 at ages 0 and 1, then 0: counts individuals aged at most 1."""
    return make_law([(0.5, (1,), (1.0, 1.0)), (0.5, (3,), (1.0, 1.0))])


@pytest.fixture
def gw13_alive():
    """gw13 with the constant characteristic 1 (extends): totals reproduce Z_n."""
    return make_law([(0.5, (1,), (1.0,)), (0.5, (3,), (1.0,))], char_extends=True)


@pytest.fixture
def early_law():
    """Builder of random K-age laws: 1-3 children at age 1 plus sparse single births up to age K.

    ``early_law(K, seed)`` has three atoms; atom 0 always bears at age K.
    """

    def build(K: int, seed: int = 0):
        rng = np.random.default_rng([K, seed])
        probs = rng.dirichlet(np.full(3, 4.0))
        atoms = []
        for a in range(3):
            births = (rng.random(K) < min(0.3, 3.0 / K)).astype(int)
            births[0] = rng.integers(1, 4)
            if a == 0:
                births[K - 1] = 1
            atoms.append((float(probs[a]), tuple(int(x) for x in births)))
        return make_law(atoms)

    return build
