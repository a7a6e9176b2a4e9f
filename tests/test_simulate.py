"""Simulation: exact pathwise identities, reproducibility, and Monte Carlo nulls.

The statistical tests at the bottom run a few thousand replicates each with
fixed seeds; their thresholds (3 standard errors, +-0.1 on fitted slopes) are
theory-derived, not tuned to the seeds.
"""

from __future__ import annotations

import dataclasses
import math
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cmjfluct import simulate as sim
from cmjfluct.errors import RefusalError
from cmjfluct.limits import _series_ratio, sigma2_series
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
    for n in range(1, trace.horizon + 1):  # each cohort is the births its elders bear
        ages = range(1, min(n, K) + 1)
        assert trace.B[n] == sum(c * litter[k] for k in ages for c, litter in zip(trace.cohort_atoms[n - k], trace.litters))
    for name in ("B", "Z"):  # derived from the draws, so no copy can set them apart
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(trace, **{name: getattr(trace, name)})


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


def _draw_off(trace, n, atom, step):
    """A copy of ``trace`` with ``step`` more newborns of cohort ``n`` drawing ``atom``."""
    rows = list(trace.cohort_atoms)
    rows[n] = rows[n][:atom] + (rows[n][atom] + step,) + rows[n][atom + 1 :]
    return dataclasses.replace(trace, cohort_atoms=tuple(rows))


def test_innovations_deterministic_all_zero_after_seed(det_two_age):
    trace = sim.run(det_two_age, 8, 0)
    W = sim.innovations(trace, moments(det_two_age))
    assert W[0] == 1.0
    assert np.all(W[1:] == 0.0)


def test_innovations_single_age_formula(gw13):
    trace = sim.run(gw13, 12, 31)
    W = sim.innovations(trace, moments(gw13))
    for n in range(1, 13):
        assert W[n] == pytest.approx(trace.B[n] - 2.0 * trace.B[n - 1], abs=1e-12)


def test_innovation_identity_detects_corruption(gw13):
    trace = sim.run(gw13, 8, 31)
    rows = list(trace.cohort_atoms)
    rows[3] = (rows[3][0], rows[3][1] + 5)
    with pytest.raises(RuntimeError):
        dataclasses.replace(trace, cohort_atoms=tuple(rows))


def test_birth_identity_fault_message_prints_no_numpy_types(gw13):
    trace = sim.run(gw13, 10, 7)
    with pytest.raises(RuntimeError, match="birth identity violated at n = 5") as exc:
        _draw_off(trace, 5, 0, 1)
    assert "np.float64" not in str(exc.value)


def test_a_trace_without_draws_is_refused_by_name():
    with pytest.raises(ValueError, match="a trace needs the draw at n = 0"):
        sim.Trace(cohort_atoms=(), litters=((0, 1),), seed=0, cap=10, capped=False)


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


def test_birth_identity_fault_message_names_n_and_both_integer_counts(gw13_deaths):
    trace = sim.run(gw13_deaths, 10, 7)
    with pytest.raises(RuntimeError, match="birth identity violated at n = 5: ") as exc:
        _draw_off(trace, 5, 0, 1)
    assert str(exc.value).endswith(f"B_n = {trace.B[5] + 1} but earlier cohorts bear {trace.B[5]}")


def test_a_draw_off_by_one_faults_where_the_scores_would_move(gw13_deaths):
    # one more newborn drawing atom 0 at n = 5 would move the scored totals at n = 5 and 6 without a fault
    trace = sim.run(gw13_deaths, 12, 7)
    assert tuple(sim.char_total(trace, gw13_deaths)[5:7]) == (10.0, 18.0)
    with pytest.raises(RuntimeError, match="birth identity violated at n = 5: B_n = 8 but earlier cohorts bear 7"):
        _draw_off(trace, 5, 0, 1)


def test_a_draw_off_cannot_be_built_so_no_reader_sees_it(gw13):
    # fluctuations, martingale_qv and trace_csv on an unscored law never form the innovations, yet read the copy
    trace = sim.run(gw13, 10, 7)
    tab, m = moments(gw13), classify(gw13).m
    assert sim.fluctuations(trace, m, 0, 3).shape == (11, 4)
    assert sim.martingale_qv(trace, tab, {1: 1.0}, 10) > 0.0
    assert "Zphi" not in sim.trace_csv(trace, gw13)
    with pytest.raises(RuntimeError, match="birth identity violated at n = 5: B_n = 8 but earlier cohorts bear 7"):
        _draw_off(trace, 5, 0, 1)


def test_a_newborn_moved_between_atoms_faults_where_its_children_land(gw13_coin):
    # B_c is unchanged, so only the births of the next cohort can show it: atom 0 bears 1 child at age 1, atom 2 bears 3
    trace = sim.run(gw13_coin, 12, 5)
    c = next(c for c, counts in enumerate(trace.cohort_atoms) if counts[0] and c < trace.horizon)
    rows = [list(counts) for counts in trace.cohort_atoms]
    rows[c][0] -= 1
    rows[c][2] += 1
    assert tuple(map(sum, rows)) == trace.B
    with pytest.raises(RuntimeError, match=f"birth identity violated at n = {c + 1}: "):
        dataclasses.replace(trace, cohort_atoms=tuple(map(tuple, rows)))


def test_char_requires_characteristic(gw13):
    trace = sim.run(gw13, 5, 0)
    with pytest.raises(ValueError):
        sim.char_total(trace, gw13)


# ---------------------------------------------------------------- exact identity checks on capped paths

#: Scored laws whose paths reach the default cap of 2^62 before horizon 70, far past float64's exact integers.
_LONG_SCORED = {
    "gw13_coin": [(0.25, (1,), (1.0,)), (0.25, (1,), (-1.0,)), (0.25, (3,), (1.0,)), (0.25, (3,), (-1.0,))],
    "gw13_deaths": [(0.5, (1,), (1.0, 1.0)), (0.5, (3,), (1.0, 1.0))],
    "law_i_scored": [(0.5, (1, 1), (1.0, 1.0)), (0.5, (3, 1), (1.0, 0.5))],
}


@pytest.mark.parametrize("name", sorted(_LONG_SCORED))
def test_clean_capped_paths_pass_every_identity_check(name):
    law = make_law(_LONG_SCORED[name])
    tab, m = moments(law), classify(law).m
    for seed in range(5):
        trace = sim.run(law, 70, seed)
        assert trace.capped and trace.Z[-1] > 1 << 53
        W = sim.innovations(trace, tab)
        totals = sim.char_total(trace, law)
        assert np.all(np.isfinite(W)) and np.all(np.isfinite(totals))
        assert sim.verify_recursion(trace, tab, m, 10, law.max_age + 12) <= 1e-9


@pytest.mark.parametrize("name", sorted(_LONG_SCORED) + ["early_law_k40"])
def test_one_count_off_on_a_capped_path_faults_at_its_n(name, early_law):
    # K = 40 runs the birth identity over many ages; every law caps before n = 100, past 2^53 by n = horizon - 3
    law = early_law(40) if name == "early_law_k40" else make_law(_LONG_SCORED[name])
    trace = sim.run(law, 100, 3)
    assert trace.capped and trace.B[trace.horizon - 3] > 1 << 53
    for n in (trace.horizon - 3, 0):
        for atom in range(len(law.atoms)):
            for step in (1, -1):
                with pytest.raises(RuntimeError, match=f"birth identity violated at n = {n}: ") as exc:
                    _draw_off(trace, n, atom, step)
                assert f"B_n = {trace.B[n] + step} but earlier cohorts bear {trace.B[n]}" in str(exc.value)


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
    with pytest.raises(RefusalError, match="regime I: oscillation profiles exist only in regime III"):
        sim.estimate_U(trace_i, moments(gw13), report_i, 0.5, 8)
    report = classify(law_iii)
    trace = sim.run(law_iii, 8, 0)
    with pytest.raises(RefusalError, match="non-simple critical root"):
        sim.estimate_U(trace, moments(law_iii), dataclasses.replace(report, non_simple=True), report.gamma_crit[0], 8)
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


def test_expected_counts_match_growth(gw13, det_two_age, law_i):
    b, z = sim.expected_counts(gw13, 10)
    assert np.allclose(b, 2.0 ** np.arange(11), rtol=1e-12)
    assert np.allclose(z, 2.0 ** np.arange(1, 12) - 1.0, rtol=1e-12)
    b2, _ = sim.expected_counts(det_two_age, 4)
    assert np.array_equal(b2, np.array([1.0, 1.0, 3.0, 5.0, 11.0]))
    # law_i (m = 1 + sqrt 2): E Z_n passes float64 at n = 805 and E B_n at n = 806, a fault naming both, not infs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(sim.expected_counts(gw13, 1000)[0], 2.0 ** np.arange(1001))
        mu, ref = moments(law_i).mu, [1.0]  # the per-step loop the series division replaced: the same sums in order
        for n in range(1, 805):
            ref.append(float(sum(mu[k] * ref[n - k] for k in range(1, min(n, 2) + 1))))
        assert sim.expected_counts(law_i, 804)[0].tobytes() == np.array(ref).tobytes()
        with pytest.raises(RuntimeError, match=r"left float64: E Z_n at n = 805$"):
            sim.expected_counts(law_i, 805)
        with pytest.raises(RuntimeError, match=r"left float64: E B_n at n = 806 and E Z_n at n = 805"):
            sim.expected_counts(law_i, 10**4)
        # the division stops at E B_806, so horizon 10^6 faults as fast (filling the horizon first took 2.2 s)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"left float64: E B_n at n = 806 and E Z_n at n = 805$"):
            sim.expected_counts(law_i, 10**6)
        assert time.perf_counter() - start < 1.0
        # nor is a buffer for the horizon taken first: 10^10 steps would ask for 80 GB
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match=r"left float64: E B_n at n = 806 and E Z_n at n = 805$"):
                sim.expected_counts(law_i, 10**10)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


def test_series_division_stops_at_its_first_coefficient_past_float64():
    # 1 / (1 - 1e200 z) = sum 1e200^j z^j: 1e400 is past float64, so the array ends at j = 2, wherever n puts its end
    for n in (2, 3, 5, 5000):
        with np.errstate(over="ignore"):
            got = _series_ratio([1.0], np.array([1.0, -1e200]), n)
        assert got.tolist() == [1.0, 1e200, math.inf][:n]
    assert np.array_equal(_series_ratio([1.0], np.array([1.0, -0.5]), 3000), 0.5 ** np.arange(3000))


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
        W = sim.innovations(trace, tab)
        born = sum(c * litter[1] for c, litter in zip(trace.cohort_atoms[n], trace.litters))  # B_{n,1}
        w_n[i] = W[n] / math.sqrt(2.0**n)
        w_nk[i] = (born - tab.mu[1] * trace.B[n]) / math.sqrt(ez[n])  # W_{n,1} = B_{n,1} - mu_1 B_n
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
        for births, capped in sim._simulate_blocks(law, n_hi, reps, 404, 0):
            assert not capped.any()
            Z = np.cumsum(births, axis=1).astype(float)
            for k in range(n_hi + 1):
                acc += np.sum(sim._prediction_errors(Z, report.m, ns, [k])[..., 0] ** 2, axis=0)
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
    """Every block of the batch engine, joined: one row per replicate, with the totals its births make."""
    births, capped = zip(*sim._simulate_blocks(law, horizon, replicates, master_seed, 0, cap))
    B = np.concatenate(births)
    return SimpleNamespace(B=B, Z=np.cumsum(B, axis=1), capped=np.concatenate(capped))


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
            # innovations from births, as campaigns form them: the seed W_0 = 1, then exactly zero
            W = sim._births_innovations(batch.B.astype(float), moments(law).mu)
            assert W.tobytes() == np.tile(sim.innovations(trace, moments(law)), (3, 1)).tobytes()
            assert np.all(W[:, 0] == 1.0) and not W[:, 1:].any()


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


def test_engine_refusals_come_before_any_block_is_drawn(monkeypatch):
    # every named refusal of the generator raises at its first next(), before a block's generator is seeded
    law, huge = make_law([(1.0, (2,))]), make_law([(0.5, (1,)), (0.5, (2**62 + 1,))])
    seeded = []
    monkeypatch.setattr(sim.np.random, "default_rng", lambda *args: seeded.append(args))
    cases = [
        ((law, -1, 2, 0, 0), "horizon = -1 must be >= 0"),
        ((law, 3, 0, 0, 0), "replicates = 0 must be >= 1"),
        ((law, 3, 2, 0, 0, 0), "cap = 0 outside [1, 2^62]"),
        ((law, 3, 2, 0, 0, 2**62 + 1), f"cap = {2**62 + 1} outside [1, 2^62]"),
        ((huge, 3, 2, 0, 0), f"a litter of {2**62 + 1} births exceeds 2^62"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            next(sim._simulate_blocks(*args))
    assert not seeded
