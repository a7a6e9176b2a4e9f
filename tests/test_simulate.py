"""Simulation: exact pathwise identities, reproducibility, and Monte Carlo nulls.

The statistical tests at the bottom run a few thousand replicates each with
fixed seeds; their thresholds (3 standard errors, +-0.1 on fitted slopes) are
theory-derived, not tuned to the seeds.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cmjfluct import simulate as sim
from cmjfluct.limits import sigma2_series
from cmjfluct.offspring import make_law, moments
from cmjfluct.spectral import classify, vector_v


# ---------------------------------------------------------------- run


def test_deterministic_doubling_counts(det_gw):
    trace = sim.run(det_gw, 4, 0)
    assert trace.B == (1, 2, 4, 8, 16)
    assert trace.Z == (1, 3, 7, 15, 31)
    assert not trace.capped


def test_deterministic_two_age_recurrence(det_two_age):
    trace = sim.run(det_two_age, 4, 0)
    assert trace.B == (1, 1, 3, 5, 11)
    assert trace.Z == (1, 2, 5, 10, 21)


def test_horizon_zero_is_just_the_root(gw13):
    trace = sim.run(gw13, 0, 123)
    assert trace.B == (1,)
    assert trace.Z == (1,)
    assert trace.horizon == 0


def test_run_rejects_bad_inputs(gw13):
    subcritical = make_law([(0.9, (0,)), (0.1, (1,))])
    with pytest.raises(ValueError):
        sim.run(subcritical, 5, 0)
    with pytest.raises(ValueError):
        sim.run(gw13, -1, 0)
    with pytest.raises(ValueError):
        sim.run(gw13, 5, 0, cap=0)


def test_counts_are_exact_and_consistent(law_i):
    trace = sim.run(law_i, 14, 2024)
    K = law_i.max_age
    for n in range(trace.horizon + 1):
        assert isinstance(trace.B[n], int) and isinstance(trace.Z[n], int)
        assert trace.Z[n] == (trace.Z[n - 1] if n else 0) + trace.B[n]
        assert sum(trace.cohort_atoms[n]) == trace.B[n]
    for n in range(1, trace.horizon + 1):
        assert trace.B[n] == sum(trace.Bnk[n - k][k] for k in range(1, min(n, K) + 1))


def test_same_seed_reproduces_bit_identical_trace(gw13):
    a = sim.run(gw13, 12, (7, 0, 3))
    b = sim.run(gw13, 12, (7, 0, 3))
    assert a.B == b.B and a.Z == b.Z and a.cohort_atoms == b.cohort_atoms
    c = sim.run(gw13, 12, (7, 0, 4))
    assert c.B != a.B


def test_cap_truncates_and_flags(gw13):
    trace = sim.run(gw13, 40, 1, cap=100)
    assert trace.capped
    assert trace.horizon < 40
    assert trace.Z[-1] <= 100


def test_multi_atom_split_is_exact():
    law = make_law([(0.3, (2, 1)), (0.3, (1, 2)), (0.4, (0, 3))])
    trace = sim.run(law, 12, 5)
    for n in range(trace.horizon + 1):
        assert sum(trace.cohort_atoms[n]) == trace.B[n]
        assert min(trace.cohort_atoms[n]) >= 0


# ---------------------------------------------------------------- fluctuations


def test_fluctuation_zero_lag_vanishes(gw13):
    trace = sim.run(gw13, 10, 9)
    X = sim.fluctuations(trace, 2.0, 0, 4)
    assert np.all(X[:, 0] == 0.0)


def test_fluctuation_deterministic_closed_form(det_gw):
    trace = sim.run(det_gw, 6, 0)
    X = sim.fluctuations(trace, 2.0, 0, 4)
    for n in range(7):
        for k in range(0, 5):
            want = 2.0**-k - 1.0 if n >= k else -(2.0**-k) * trace.Z[n]
            assert X[n, k] == pytest.approx(want, abs=1e-12)


def test_fluctuation_negative_lag_looks_ahead(det_gw):
    trace = sim.run(det_gw, 6, 0)
    X = sim.fluctuations(trace, 2.0, -2, 0)
    assert X.shape[0] == 5  # rows stop where the future is unknown
    for n in range(5):
        assert X[n, 0] == pytest.approx(trace.Z[n + 2] - 4.0 * trace.Z[n], abs=1e-12)
    with pytest.raises(ValueError):
        sim.fluctuations(trace, 2.0, -7, 0)
    with pytest.raises(ValueError):
        sim.fluctuations(trace, 2.0, 3, 1)


# ---------------------------------------------------------------- innovations


def test_innovations_deterministic_all_zero_after_seed(det_two_age):
    trace = sim.run(det_two_age, 8, 0)
    W, Wnk = sim.innovations(trace, moments(det_two_age))
    assert W[0] == 1.0
    assert np.all(W[1:] == 0.0)
    assert np.all(Wnk == 0.0)


def test_innovations_single_age_formula(gw13):
    trace = sim.run(gw13, 12, 31)
    W, _ = sim.innovations(trace, moments(gw13))
    for n in range(1, 13):
        assert W[n] == pytest.approx(trace.B[n] - 2.0 * trace.B[n - 1], abs=1e-12)


def test_innovation_identity_detects_corruption(gw13):
    trace = sim.run(gw13, 8, 31)
    rows = list(trace.Bnk)
    rows[3] = (0, rows[3][1] + 5)
    bad = dataclasses.replace(trace, Bnk=tuple(rows))
    with pytest.raises(RuntimeError):
        sim.innovations(bad, moments(gw13))


def test_innovation_fault_message_prints_plain_floats(gw13):
    trace = sim.run(gw13, 10, 7)
    B = list(trace.B)
    B[5] += 1
    with pytest.raises(RuntimeError, match="innovation identity violated at n = 5") as exc:
        sim.innovations(dataclasses.replace(trace, B=tuple(B)), moments(gw13))
    assert "np.float64" not in str(exc.value)


# ---------------------------------------------------------------- characteristics


def test_char_constant_extending_recounts_population(gw13_alive):
    trace = sim.run(gw13_alive, 10, 7)
    totals = sim.char_total(trace, gw13_alive)
    assert np.array_equal(totals, np.array(trace.Z, dtype=float))


def test_char_lifelength_two_counts_recent_births(gw13_deaths):
    trace = sim.run(gw13_deaths, 10, 7)
    totals = sim.char_total(trace, gw13_deaths)
    want = [trace.Z[n] - (trace.Z[n - 2] if n >= 2 else 0) for n in range(11)]
    assert np.array_equal(totals, np.array(want, dtype=float))


def test_char_zero_scores_zero():
    law = make_law([(0.5, (1,), (0.0,)), (0.5, (3,), (0.0,))])
    trace = sim.run(law, 8, 3)
    assert np.all(sim.char_total(trace, law) == 0.0)


def test_char_fault_message_prints_a_plain_float(gw13_deaths):
    trace = sim.run(gw13_deaths, 10, 7)
    B = list(trace.B)
    B[5] += 1
    with pytest.raises(RuntimeError, match="characteristic decomposition violated") as exc:
        sim.char_total(dataclasses.replace(trace, B=tuple(B)), gw13_deaths)
    assert "np.float64" not in str(exc.value)
    assert float(str(exc.value).rsplit(" ", 1)[1]) > 1e-9


def test_char_requires_characteristic(gw13):
    trace = sim.run(gw13, 5, 0)
    with pytest.raises(ValueError):
        sim.char_total(trace, gw13)
    with pytest.raises(ValueError):
        sim.char_decomposition_residual(trace, gw13)


def test_char_decomposition_residual_is_rounding_only():
    # score correlated with the litter: exercises every term of the identity
    law = make_law([(0.5, (1,), (1.0, 0.25)), (0.5, (3,), (3.0, -0.5))])
    trace = sim.run(law, 14, 11)
    assert sim.char_decomposition_residual(trace, law) <= 1e-12
    ext = make_law([(0.5, (1,), (1.0, 0.25)), (0.5, (3,), (3.0, -0.5))], char_extends=True)
    trace2 = sim.run(ext, 14, 11)
    assert sim.char_decomposition_residual(trace2, ext) <= 1e-12


# ---------------------------------------------------------------- oscillation coefficient


def test_estimate_u_deterministic_is_seed_term_only():
    law = make_law([(1.0, (1, 9))])
    report = classify(law)
    assert report.regime == "III"
    trace = sim.run(law, 8, 0)
    est = sim.estimate_U(trace, moments(law), report, report.gamma_crit[0], 8)
    g = report.gamma_crit[0]
    mu = moments(law).mu
    want = -1.0 / (g * (g - 1.0) * (mu[1] + 2.0 * mu[2] * g))
    assert est.value == pytest.approx(want, rel=1e-12)
    assert est.centered == 0.0
    assert 0.0 < est.tail_scale < 1.0


def test_estimate_u_real_root_gives_real_value(law_iii):
    report = classify(law_iii)
    trace = sim.run(law_iii, 12, 17)
    est = sim.estimate_U(trace, moments(law_iii), report, report.gamma_crit[0], 12)
    assert est.value.imag == 0.0
    assert est.centered.imag == 0.0
    assert est.root == report.gamma_crit[0]


def test_estimate_u_faults(gw13, law_iii):
    report_i = classify(gw13)
    trace_i = sim.run(gw13, 8, 0)
    with pytest.raises(ValueError):
        sim.estimate_U(trace_i, moments(gw13), report_i, 0.5, 8)
    report = classify(law_iii)
    trace = sim.run(law_iii, 8, 0)
    with pytest.raises(ValueError):
        sim.estimate_U(trace, moments(law_iii), report, 0.9 + 0.0j, 8)
    with pytest.raises(ValueError):
        sim.estimate_U(trace, moments(law_iii), report, report.gamma_crit[0], 9)


# ---------------------------------------------------------------- quadratic variation


def test_qv_deterministic_is_zero(det_two_age):
    trace = sim.run(det_two_age, 8, 0)
    assert sim.martingale_qv(trace, moments(det_two_age), {1: 1.0}, 8) == 0.0


def test_qv_single_age_closed_form(gw13):
    # alpha_k = 1/2 for every k, so V_n = (1/4) Z_{n-1} exactly
    trace = sim.run(gw13, 12, 42)
    got = sim.martingale_qv(trace, moments(gw13), {1: 1.0}, 10)
    assert got == pytest.approx(trace.Z[9] / 4.0, rel=1e-12)


def test_qv_at_time_zero_is_zero(gw13):
    trace = sim.run(gw13, 3, 5)
    assert sim.martingale_qv(trace, moments(gw13), {1: 1.0}, 0) == 0.0


def test_qv_ratio_tracks_series_variance(gw13):
    report = classify(gw13)
    sigma2 = sigma2_series(gw13, report, {1: 1.0})
    trace = sim.run(gw13, 18, 2718)
    ratio = sim.martingale_qv(trace, moments(gw13), {1: 1.0}, 18) / trace.Z[18]
    assert abs(ratio - sigma2) <= 0.1 * sigma2


def test_qv_rejects_bad_inputs(gw13):
    trace = sim.run(gw13, 5, 0)
    with pytest.raises(ValueError):
        sim.martingale_qv(trace, moments(gw13), {-1: 1.0}, 4)
    with pytest.raises(ValueError):
        sim.martingale_qv(trace, moments(gw13), {1: 1.0}, 6)


# ---------------------------------------------------------------- recursion check


def test_recursion_deterministic_exact(det_gw):
    trace = sim.run(det_gw, 6, 0)
    assert sim.verify_recursion(trace, moments(det_gw), 2.0, 3, 10) <= 1e-12


def test_recursion_random_run(gw13):
    trace = sim.run(gw13, 12, 99)
    assert sim.verify_recursion(trace, moments(gw13), 2.0, 10, 25) <= 1e-9


def test_recursion_time_zero_window(law_i):
    # X_0 = -v: the seed innovation alone reproduces the first window
    report = classify(law_i)
    trace = sim.run(law_i, 3, 4)
    assert sim.verify_recursion(trace, moments(law_i), report.m, 0, 8) <= 1e-12
    X = sim.fluctuations(trace, report.m, 0, 8)
    assert np.allclose(X[0], -vector_v(report.m, 8), atol=1e-12)


def test_recursion_pre_faults(gw13):
    trace = sim.run(gw13, 25, 0)
    with pytest.raises(ValueError):
        sim.verify_recursion(trace, moments(gw13), 2.0, 21, 60)
    with pytest.raises(ValueError):
        sim.verify_recursion(trace, moments(gw13), 2.0, 10, 10)


# ---------------------------------------------------------------- means, serialization


def test_expected_counts_match_growth(gw13, det_two_age):
    b, z = sim.expected_counts(gw13, 10)
    assert np.allclose(b, 2.0 ** np.arange(11), rtol=1e-12)
    assert np.allclose(z, 2.0 ** np.arange(1, 12) - 1.0, rtol=1e-12)
    b2, _ = sim.expected_counts(det_two_age, 4)
    assert np.array_equal(b2, np.array([1.0, 1.0, 3.0, 5.0, 11.0]))


def test_trace_csv_layout(det_two_age, gw13_alive):
    trace = sim.run(det_two_age, 4, 0)
    text = sim.trace_csv(trace, det_two_age)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# law = ")
    assert lines[1] == "# seed = 0"
    assert lines[2].startswith("# cap = ")
    assert lines[4] == "n,B,Z,B_k1,B_k2"
    assert lines[5] == "0,1,1,1,2"
    assert text == sim.trace_csv(trace, det_two_age)

    tchar = sim.run(gw13_alive, 3, 1)
    clines = sim.trace_csv(tchar, gw13_alive).strip().split("\n")
    assert clines[4].endswith(",Zphi")


# ---------------------------------------------------------------- Monte Carlo nulls


def test_innovation_mean_nulls(gw13):
    n, reps = 10, 10_000
    tab = moments(gw13)
    _, ez = sim.expected_counts(gw13, n)
    w_n = np.empty(reps)
    w_nk = np.empty(reps)
    for i in range(reps):
        trace = sim.run(gw13, n, (404, 0, i))
        W, Wnk = sim.innovations(trace, tab)
        w_n[i] = W[n] / math.sqrt(2.0**n)
        w_nk[i] = Wnk[n, 1] / math.sqrt(ez[n])
    for sample in (w_n, w_nk):
        se = sample.std(ddof=1) / math.sqrt(reps)
        assert abs(sample.mean()) <= 3.0 * se


def test_oscillation_coefficient_mean_null(law_iii):
    # the centered view has exact mean zero; the full value is offset by the
    # seed innovation, which is deterministic and known in closed form
    report = classify(law_iii)
    tab = moments(law_iii)
    g = report.gamma_crit[0]
    mu = tab.mu
    seed_offset = (-1.0 / (g * (g - 1.0) * (mu[1] + 2.0 * mu[2] * g))).real
    n0, reps = 12, 10_000
    centered = np.empty(reps)
    full = np.empty(reps)
    for i in range(reps):
        trace = sim.run(law_iii, n0, (404, 1, i))
        est = sim.estimate_U(trace, tab, report, g, n0)
        centered[i] = est.centered.real
        full[i] = est.value.real
    se = centered.std(ddof=1) / math.sqrt(reps)
    assert abs(centered.mean()) <= 3.0 * se
    assert abs(full.mean() - seed_offset) <= 3.0 * se


def test_growth_of_squared_error_norm(gw13, law_ii):
    # log E ||X_n||^2 grows linearly with slope log m away from criticality
    # and picks up an extra factor n exactly at it; over master seeds 1-50 the
    # worst slope error is 0.006 and the critical coefficient lies in [0.566, 0.634]
    reps = 10_000
    n_lo, n_hi = 8, 16
    ns = np.arange(n_lo, n_hi + 1)
    for law, critical in ((gw13, False), (law_ii, True)):
        report = classify(law)
        acc = np.zeros(len(ns))
        for block in sim._simulate_blocks(law, n_hi, reps, 404, 0):
            assert not block.capped.any()
            Z = block.Z.astype(float)
            for k in range(n_hi + 1):
                acc += np.sum(sim._prediction_errors(Z, report.m, ns, k) ** 2, axis=0)
        log_mean = np.log(acc / reps)
        if not critical:
            slope = np.polyfit(ns, log_mean, 1)[0]
            assert abs(slope - math.log(report.m)) <= 0.1
        else:
            excess = log_mean - ns * math.log(report.m)
            coeff = np.polyfit(np.log(ns), excess, 1)[0]
            assert 0.5 < coeff < 1.5


# ---------------------------------------------------------------- batch engine


def _batch(law, horizon, replicates, cap=sim._DEFAULT_CAP, master_seed=0):
    """Every block of the batch engine, joined: one row per replicate."""
    blocks = list(sim._simulate_blocks(law, horizon, replicates, master_seed, 0, cap))
    return SimpleNamespace(**{name: np.concatenate([getattr(b, name) for b in blocks]) for name in ("B", "Z", "capped")})


def test_batch_matches_run_on_deterministic_laws(det_gw, det_two_age):
    for law in (det_gw, det_two_age):
        for horizon in (0, 1, 7):
            trace = sim.run(law, horizon, 0)
            batch = _batch(law, horizon, 3)
            assert batch.B.dtype == np.int64
            assert not batch.capped.any()
            for i in range(3):
                assert tuple(int(b) for b in batch.B[i]) == trace.B
                assert tuple(int(z) for z in batch.Z[i]) == trace.Z
            # cohort births, formed only up to the horizon
            (block,) = sim._simulate_blocks(law, horizon, 3, 0, 0, cohorts=True)
            K = law.max_age
            expected = [[trace.Bnk[n][k] if 0 < k and n + k <= horizon else 0 for k in range(K + 1)] for n in range(horizon + 1)]
            assert all(block.Bnk[i].tolist() == expected for i in range(3))


def test_batch_cap_rule_matches_run(det_gw, det_two_age):
    horizon = 6
    for law in (det_gw, det_two_age):
        z_end = sim.run(law, horizon, 0).Z[-1]
        for cap in range(1, z_end + 3):
            batch = _batch(law, horizon, 2, cap=cap)
            assert batch.capped.tolist() == [sim.run(law, horizon, 0, cap=cap).capped] * 2
            # a capped row stops before its count passes the cap
            assert np.all(batch.Z[:, -1] <= cap)
            if not batch.capped[0]:
                assert int(batch.Z[0, -1]) == z_end


def test_batch_rows_do_not_depend_on_replicate_count(law_ii):
    for cap in (sim._DEFAULT_CAP, 15_000_000):
        small = _batch(law_ii, 12, 150, cap=cap, master_seed=8)
        large = _batch(law_ii, 12, 600, cap=cap, master_seed=8)
        assert np.array_equal(small.B, large.B[:150])
        assert np.array_equal(small.Z, large.Z[:150])
        assert np.array_equal(small.capped, large.capped[:150])
    assert 0 < np.count_nonzero(small.capped) < 150
    assert np.all(small.Z[:, -1] <= 15_000_000)


def test_batch_means_match_expected_counts(law_ii):
    k10 = make_law([(0.3, {1: 2, 10: 1}), (0.5, {1: 1, 4: 1}), (0.2, {1: 3, 7: 2})])
    for law, horizon in ((law_ii, 12), (k10, 20)):
        batch = _batch(law, horizon, 4000, master_seed=3)
        _, ez = sim.expected_counts(law, horizon)
        Z = batch.Z.astype(float)
        se = Z.std(axis=0, ddof=1) / math.sqrt(len(Z))
        assert np.all(np.abs(Z.mean(axis=0) - ez) <= 4.0 * np.maximum(se, 1e-12))


def test_batch_guards_int64_overflow():
    # 2^40 newborns each bearing 2^40 children: an unguarded int64 product wraps
    wrapped = np.array([[2**40]], dtype=np.int64) @ np.array([[2**40]], dtype=np.int64)
    assert int(wrapped[0, 0]) != 2**80
    for litter in (2**31, 2**32, 2**40):
        law = make_law([(1.0, (litter,))])
        for horizon in (1, 2, 3):
            trace = sim.run(law, horizon, 0)
            batch = _batch(law, horizon, 2)
            assert batch.capped.tolist() == [trace.capped] * 2
            if not trace.capped:
                assert tuple(int(z) for z in batch.Z[0]) == trace.Z
    with pytest.raises(ValueError, match="2\\^62"):
        _batch(make_law([(1.0, (2,))]), 3, 2, cap=2**62 + 1)
    with pytest.raises(ValueError, match="2\\^62"):
        _batch(make_law([(1.0, (2**63,))]), 3, 2)
