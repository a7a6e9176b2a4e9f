"""Per-path reductions against reference copies of their per-epoch and per-row loops.

``martingale_qv`` and ``sigma2_series`` read the epoch forms in blocks and
``verify_recursion`` accumulates every right-hand side at once.  The
references below are the loops they replaced: one numpy form per epoch and
one running sum per row.  The forms may differ in the last bits (the block
einsum sums ``sigma_ij alpha_i alpha_j`` in its own order), so sums agree to
1e-12 relative and overflow at the same term and epoch; the recursion
residual keeps its summation order and must agree exactly.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from cmjfluct import make_law
from cmjfluct import simulate as sim
from cmjfluct.limits import sigma2_series
from cmjfluct.offspring import moments
from cmjfluct.spectral import _apply_T_mu, _growth_from_mu, classify, vector_v


def _reference_forms(tab, m, a):
    mu = tab.mu
    k_top = len(mu) - 1
    sig = tab.sigma[1:, 1:]
    y = vector_v(m, max(k_top, max(a)))
    alphas = [float(sum(c * y[k] for k, c in a.items()))]
    while True:
        y = _apply_T_mu(mu, m, y)
        alphas.append(float(sum(c * y[k] for k, c in a.items())))
        ell = len(alphas) - 1
        window = np.array([alphas[ell - i] if ell - i >= 0 else 0.0 for i in range(1, k_top + 1)])
        with np.errstate(over="ignore", invalid="ignore"):
            yield float(window @ sig @ window)


def _reference_qv(trace, tab, a, n):
    m = _growth_from_mu(tab.mu)
    total = 0.0
    for ell, form in zip(range(1, n + 1), _reference_forms(tab, m, a)):
        total += float(trace.B[n - ell]) * form
        if not math.isfinite(total):
            raise RuntimeError(f"quadratic variation partial sum is {total!r} at epoch {ell}: the forms overflow float64")
    return total


def _reference_series(law, report, a):
    m = report.m
    total = 0.0
    small_streak = 0
    for ell, form in zip(range(1, 100_000), _reference_forms(moments(law), m, a)):
        term = (m**-ell - m ** -(ell + 1)) * form
        total += term
        if not math.isfinite(total):
            raise RuntimeError(f"epoch series partial sum is {total!r} at term {ell}: the forms overflow float64")
        if term <= 1e-14 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2 and ell > law.max_age:
                return total
        else:
            small_streak = 0
    raise RuntimeError("epoch series did not converge within 100000 terms")


def _reference_recursion(trace, tab, m, n_small, trunc):
    W, _ = sim.innovations(trace, tab)
    iterates = [vector_v(m, trunc)]
    for _ in range(n_small):
        iterates.append(_apply_T_mu(tab.mu, m, iterates[-1]))
    X = sim.fluctuations(trace, m, 0, trunc)
    k_cmp = trunc - n_small
    worst = 0.0
    for n in range(n_small + 1):
        rhs = np.zeros(trunc + 1)
        for k in range(n + 1):
            rhs -= W[n - k] * iterates[k]
        diff = np.abs(X[n, : k_cmp + 1] - rhs[: k_cmp + 1])
        scale = np.maximum(1.0, np.abs(X[n, : k_cmp + 1]))
        worst = max(worst, float(np.max(diff / scale)))
    return worst


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuntimeError as exc:
        return str(exc)


def ladder_law(eps):
    """law_ii with a (3, 7) atom of weight eps mixed in: regime I, margin about 0.31 eps."""
    return make_law([(0.5 - eps / 2, (1, 8)), (0.5 - eps / 2, (3, 8)), (eps, (3, 7))])


VECTORS = ({1: 1.0}, {1: 0.7, 3: -1.2}, {2: 1.0, 5: 0.3})


def test_qv_and_series_match_per_epoch_reference(gw13, law_i, early_law):
    for law in (gw13, law_i, early_law(10), early_law(40)):
        report = classify(law)
        assert report.regime == "I"
        tab = moments(law)
        for a in VECTORS:
            want = _reference_series(law, report, a)
            assert sigma2_series(law, report, a) == pytest.approx(want, rel=1e-12, abs=0.0)
            for seed in range(3):
                trace = sim.run(law, 70, seed)
                for n in sorted({*range(0, trace.horizon + 1, 5), trace.horizon}):
                    want = _reference_qv(trace, tab, a, n)
                    assert sim.martingale_qv(trace, tab, a, n) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_qv_is_bit_identical_where_one_form_term_is_nonzero(gw13, law_i):
    # gw13 and law_i have sigma_11 as their only nonzero covariance, so each form is one product
    for law in (gw13, law_i):
        tab = moments(law)
        for seed in range(3):
            trace = sim.run(law, 70, seed)
            for n in range(trace.horizon + 1):
                assert sim.martingale_qv(trace, tab, {1: 1.0}, n) == _reference_qv(trace, tab, {1: 1.0}, n)


@pytest.mark.parametrize("eps", [0.0864, 0.032, 0.01, 0.0032, 0.001])
def test_overflow_term_and_epoch_match_reference(eps):
    law = ladder_law(eps)
    report = classify(law)
    tab = moments(law)
    series = _outcome(sigma2_series, law, report, {1: 1.0})
    assert "at term" in series
    assert series == _outcome(_reference_series, law, report, {1: 1.0})
    trace = dataclasses.replace(sim.run(law, 0, 0), horizon=1200, B=(1,) * 1201)
    qv = _outcome(sim.martingale_qv, trace, tab, {1: 1.0}, 1200)
    assert "at epoch" in qv
    assert qv == _outcome(_reference_qv, trace, tab, {1: 1.0}, 1200)


def test_recursion_matches_per_row_reference(gw13, law_i, early_law):
    for law in (gw13, law_i, early_law(10)):
        report = classify(law)
        tab = moments(law)
        for seed in range(5):
            trace = sim.run(law, 25, seed)
            for n_small in (0, 3, 10, 20):
                for trunc in (law.max_age + n_small, law.max_age + n_small + 5):
                    got = sim.verify_recursion(trace, tab, report.m, n_small, trunc)
                    want = _reference_recursion(trace, tab, report.m, n_small, trunc)
                    assert got == want  # the same sums in the same order, so no 1e-15 slack is needed


def test_recursion_detects_a_total_off_by_one(gw13, law_i):
    # B and Bnk stay consistent, so the innovation check passes and only the recursion can see it
    for law in (gw13, law_i):
        report = classify(law)
        trace = sim.run(law, 12, 99)
        for t in (1, 5, 10):
            Z = list(trace.Z)
            Z[t] += 1
            bad = dataclasses.replace(trace, Z=tuple(Z))
            sim.innovations(bad, moments(law))
            assert sim.verify_recursion(trace, moments(law), report.m, 10, law.max_age + 14) <= 1e-9
            assert sim.verify_recursion(bad, moments(law), report.m, 10, law.max_age + 14) > 1e-9
