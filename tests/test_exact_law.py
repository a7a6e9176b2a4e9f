"""The simulators against an exact law: the distribution of ``Z_n`` from its generating function.

The root plus each child's subtree, started at the child's birth, gives

    phi_n(s) = E s^{Z_n} = s sum_a p_a prod_{k=1..K} phi_{n-k}(s)^{b_a[k]},   phi_j = 1 for j < 0.

Evaluated at the N-th roots of unity, with N a power of two above the largest possible ``Z_n``, one FFT gives the
exact pmf (to roundoff).  The roots come from ``fftfreq``, angles in ``[-pi, pi)``: with angles in ``[0, 2 pi)``
the rounding of ``pi`` moved the pmf's mean on gw13 at n = 8 by 1.1e-12 relative, against at most 4e-14 on the four
laws here.

``_simulate_blocks`` and ``run()`` are judged against the pmf by a pooled chi-square: bins of consecutive values
pooled to an expectation of at least 5, reported as ``z = (chi2 - df) / sqrt(2 df)``.  Over master seeds 1-20, at
the sizes below, the 160 clean statistics of the four two-atom laws (two simulators) stayed within |z| <= 2.84, and
the 40 of the three-atom law, which takes the engine's three-category draw and ``run()``'s multinomial, within
-2.54..2.87, so ``_Z_BOUND`` is 4.  Two mutants keep the mean litters, so ``expected_counts`` cannot tell them
apart: a simulator that draws the correlated-age law's age marginals independently read z = 144-209 over the same
seeds, and one that permutes the three-atom law's probabilities, its litters rebalanced, z = 2015-2304.
"""

from __future__ import annotations

import numpy as np
import pytest

from cmjfluct import make_law
from cmjfluct import simulate as sim

#: Largest clean |z| allowed; see the module docstring for the sweep that set it.
_Z_BOUND = 4.0
#: Paths per master seed for the batch engine and for ``run()``.
_ENGINE_PATHS, _RUN_PATHS = 10_000, 1_000
_SEEDS = (1, 2)
#: Mean litters (1.7, 0.7, 0.6) whose ages are correlated within a litter: 1 child at age 1 goes with 2 at age 3.
_CORRELATED = [(0.3, (1, 0, 2)), (0.7, (2, 1, 0))]
#: Three atoms, mean litters (2, 0.5).
_THREE = [(0.25, (1, 0)), (0.25, (3, 0)), (0.5, (2, 1))]

_LAWS = {
    "gw13": ([(0.5, (1,)), (0.5, (3,))], 8),
    "law_i": ([(0.5, (1, 1)), (0.5, (3, 1))], 7),
    "correlated": (_CORRELATED, 8),
    "law_iii": ([(0.5, (0, 9)), (0.5, (2, 9))], 5),
    "three_atoms": (_THREE, 7),
}


def _exact_pmf(law, n: int) -> np.ndarray:
    """``P(Z_n = z)`` for ``z = 0..N-1`` from the generating-function recursion, by one FFT."""
    atoms = [(atom.prob, atom.births) for atom in law.atoms]
    most = []  # most[j]: the largest possible Z_j, the root plus each child's largest subtree
    for j in range(n + 1):
        most.append(1 + max(sum(b[k] * most[j - k] for k in range(1, min(j, law.max_age) + 1)) for _, b in atoms))
    size = 1 << most[n].bit_length()
    s = np.exp(2j * np.pi * np.fft.fftfreq(size))
    phi = []
    for j in range(n + 1):
        total = np.zeros(size, dtype=complex)
        for p, b in atoms:
            term = np.full(size, p, dtype=complex)
            for k in range(1, min(j, law.max_age) + 1):
                if b[k]:
                    term *= phi[j - k] ** b[k]
            total += term
        phi.append(s * total)
    return np.fft.fft(phi[n]).real / size


def _pooled_z(pmf: np.ndarray, draws: np.ndarray) -> float:
    """Pooled chi-square of ``draws`` against ``pmf``, as ``(chi2 - df) / sqrt(2 df)``."""
    expected = len(draws) * np.clip(pmf, 0.0, None)
    starts, acc = [0], 0.0
    for z, e in enumerate(expected.tolist()):
        acc += e
        if acc >= 5.0:
            starts.append(z + 1)
            acc = 0.0
    starts = starts[:-1]  # the last bin runs to the end and takes any remainder
    observed = np.add.reduceat(np.bincount(draws, minlength=len(pmf)), starts)
    expected = np.add.reduceat(expected, starts)
    df = len(starts) - 1
    return float(((observed - expected) ** 2 / expected).sum() - df) / np.sqrt(2.0 * df)


def _engine_draws(law, n: int, seed: int) -> np.ndarray:
    return np.concatenate([births.sum(axis=1) for births, _ in sim._simulate_blocks(law, n, _ENGINE_PATHS, seed, 0)])


@pytest.mark.parametrize("name", list(_LAWS))
def test_the_exact_pmf_has_the_mean_of_expected_counts(name):
    atoms, n = _LAWS[name]
    law = make_law(atoms)
    pmf = _exact_pmf(law, n)
    assert abs(pmf.sum() - 1.0) <= 1e-13 and pmf.min() >= -1e-15
    mean = float(np.arange(len(pmf)) @ pmf)
    assert mean == pytest.approx(sim.expected_counts(law, n)[1][n], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", list(_LAWS))
def test_both_simulators_draw_the_exact_law(name):
    atoms, n = _LAWS[name]
    law = make_law(atoms)
    pmf = _exact_pmf(law, n)
    for seed in _SEEDS:
        draws = _engine_draws(law, n, seed)
        assert (pmf[draws] > 1e-12).all()  # no draw the law cannot make
        assert abs(_pooled_z(pmf, draws)) <= _Z_BOUND, f"engine, master seed {seed}"
    draws = np.array([sim.run(law, n, (_SEEDS[0], 0, i)).Z[n] for i in range(_RUN_PATHS)])
    assert abs(_pooled_z(pmf, draws)) <= _Z_BOUND, "run()"


def test_independent_age_marginals_are_caught():
    """The mutant draws each age's births from its marginal: the same mean litters and m, another law of Z_n."""
    marginals = [{}, {}, {}]
    for p, births in _CORRELATED:
        for age, b in enumerate(births):
            marginals[age][b] = marginals[age].get(b, 0.0) + p
    mutant = [(1.0, ())]
    for marginal in marginals:
        mutant = [(p * q, births + (b,)) for p, births in mutant for b, q in marginal.items()]
    n = _LAWS["correlated"][1]
    clean, mutant = make_law(_CORRELATED), make_law(mutant)
    assert np.allclose(sim.expected_counts(mutant, n)[1], sim.expected_counts(clean, n)[1], rtol=1e-13, atol=0.0)
    pmf = _exact_pmf(clean, n)
    for seed in _SEEDS:
        assert _pooled_z(pmf, _engine_draws(mutant, n, seed)) > _Z_BOUND, f"master seed {seed}"


def test_permuted_atom_probabilities_are_caught():
    """The mutant swaps the first and last atoms' probabilities and gives the last atom a child more at each age:
    the same mean litters and m, another law of Z_n."""
    n = _LAWS["three_atoms"][1]
    clean, mutant = make_law(_THREE), make_law([(0.5, (1, 0)), (0.25, (3, 0)), (0.25, (3, 2))])
    assert np.allclose(sim.expected_counts(mutant, n)[1], sim.expected_counts(clean, n)[1], rtol=1e-13, atol=0.0)
    pmf = _exact_pmf(clean, n)
    for seed in _SEEDS:
        assert _pooled_z(pmf, _engine_draws(mutant, n, seed)) > _Z_BOUND, f"master seed {seed}"
