"""Per-path reductions against reference copies of their per-epoch and per-row loops.

``martingale_qv`` forms every epoch's quadratic form with one einsum over
iterates read from the moment table's orbit store, ``sigma2_series`` solves
their discounted sum as a Stein equation and ``verify_recursion`` slices its
iterates from the same store and accumulates every right-hand side at once.
The references below are the loops they replaced: one numpy form per epoch,
iterates rebuilt per call, and one running sum per row.  The forms may
differ in the last bits (the einsum sums ``sigma_ij alpha_i alpha_j`` in its
own order), so sums agree to 1e-12 relative and the quadratic variation
overflows at the same epoch; the recursion residual keeps its summation
order and must agree exactly.  Whatever the store holds, each call must read
the bits it reads on a fresh table.
"""

from __future__ import annotations

import dataclasses
import math
import re
import time

import numpy as np
import pytest

from cmjfluct import make_law
from cmjfluct import simulate as sim
from cmjfluct.limits import build_spectrum, sigma2_series, variance
from cmjfluct.offspring import moments
from cmjfluct.spectral import _MAX_LAG, _apply_T_mu, _orbit, classify, malthusian, vector_v


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


def _single_births(horizon):
    """A path with ``B_n = 1`` at every ``n`` up to ``horizon``: each individual bears one child, at age 1."""
    return sim.Trace(cohort_atoms=((1,),) * (horizon + 1), litters=((0, 1),), seed=0, cap=1 << 62, capped=False)


def _reference_qv(trace, tab, a, n):
    m = tab.growth
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
    W = sim.innovations(trace, tab)
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
    # the per-epoch series overflows at these margins; the Stein solve agrees with the exact route instead
    assert "at term" in _outcome(_reference_series, law, report, {1: 1.0})
    exact = variance(build_spectrum(report, tab), {1: 1.0})
    assert sigma2_series(law, report, {1: 1.0}) == pytest.approx(exact, rel=1e-13)
    trace = _single_births(1200)
    qv = _outcome(sim.martingale_qv, trace, tab, {1: 1.0}, 1200)
    assert "at epoch" in qv
    assert qv == _outcome(_reference_qv, trace, tab, {1: 1.0}, 1200)


def test_recursion_matches_per_row_reference(gw13, law_i, early_law, gw13_coin, law_iii):
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
    # long paths that reach the default cap, with counts past 2^53, on the laws a benchmark pass reduces
    law_i_scored = make_law([(0.5, (1, 1), (1.0, 1.0)), (0.5, (3, 1), (1.0, 0.5))])
    for law in (gw13_coin, law_i_scored, law_iii):
        report = classify(law)
        tab = moments(law)
        for seed in range(3):
            trace = sim.run(law, 70, (seed, 70))
            assert trace.capped and trace.Z[-1] > 1 << 53
            for n_small in (0, 10, 20):
                for trunc in (law.max_age + n_small, law.max_age + n_small + 2):
                    got = sim.verify_recursion(trace, tab, report.m, n_small, trunc)
                    assert got == _reference_recursion(trace, tab, report.m, n_small, trunc)


def test_recursion_detects_a_total_off_by_one(gw13, law_i):
    # the draws stay intact, so the birth identity passes and only the recursion can see it; Z and its float view
    # are derived from the draws, so the one total is set off on a copy past the trace's constructor
    for law in (gw13, law_i):
        report = classify(law)
        trace = sim.run(law, 12, 99)
        for t in (1, 5, 10):
            Z = list(trace.Z)
            Z[t] += 1
            bad = dataclasses.replace(trace)
            object.__setattr__(bad, "Z", tuple(Z))
            object.__setattr__(bad, "Z_float", np.asarray(Z, dtype=float))
            assert sim.verify_recursion(trace, moments(law), report.m, 10, law.max_age + 14) <= 1e-9
            assert sim.verify_recursion(bad, moments(law), report.m, 10, law.max_age + 14) > 1e-9


def _answer(fn, trace, tab, *args):
    out = _outcome(fn, trace, tab, *args)
    return out if isinstance(out, str) else np.float64(out).tobytes()


def test_orbit_reads_the_same_bits_whatever_was_asked_first(gw13, law_i, early_law):
    # a narrower or shorter request reads a prefix of the store, so each call on one table, in turn, matches
    # the same call on a fresh table: the store grows longer, then wider, then serves the first calls again
    for law in (gw13, law_i, early_law(40)):
        tab, m, k_top = moments(law), malthusian(law), law.max_age
        long = _single_births(600)
        short = sim.run(law, 25, 3)
        n_small = min(10, short.horizon)
        recursion = [(sim.verify_recursion, short, m, n_small, k_top + n_small + extra) for extra in (100, 0)]
        qv = [[(sim.martingale_qv, long, a, n) for a in VECTORS] for n in (5, 600)]
        for fn, trace, *args in qv[0] + qv[1] + recursion + qv[0]:
            assert _answer(fn, trace, tab, *args) == _answer(fn, trace, moments(dataclasses.replace(law)), *args)


def test_orbit_store_is_read_only_and_sized_to_the_next_power_of_two(gw13, early_law):
    for law in (gw13, early_law(40)):
        tab, k_top = moments(dataclasses.replace(law)), law.max_age
        most = [0, 0]
        for steps, width in ((4, k_top), (70, k_top + 3), (2, k_top + 30), (9, k_top + 1), (200, k_top)):
            rows = _orbit(tab, steps, width)
            assert rows.shape == (steps + 1, width + 1)
            most = [max(most[0], steps + 1), max(most[1], width + 1)]
            assert tab._orbit.rows.shape == tuple(1 << (size - 1).bit_length() for size in most)
            assert not rows.flags.writeable and not tab._orbit.rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0


def test_epoch_series_refuse_lags_past_the_bound(law_i):
    report, tab = classify(law_i), moments(law_i)
    trace = sim.run(law_i, 20, 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"lag = 800 is outside [0, {_MAX_LAG}]")):
        sigma2_series(law_i, report, {1: 1.0, 800: 1.0})
    with pytest.raises(ValueError, match=re.escape(f"lag = 800 is outside [0, {_MAX_LAG}]")):
        sim.martingale_qv(trace, tab, {1: 1.0, 800: 1.0}, trace.horizon)
    assert time.perf_counter() - start < 1.0  # refused before any window is built
    assert math.isfinite(sigma2_series(law_i, report, {_MAX_LAG: 1.0}))
    assert math.isfinite(sim.martingale_qv(trace, tab, {_MAX_LAG: 1.0}, trace.horizon))
