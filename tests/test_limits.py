"""Limiting covariance structure: frozen hand-derived values and structural laws.

Hand derivations used as oracles below:

* gw13 (m = 2, sigma_11 = 1): the circle density is
  (1/4) / (|1 - z|^2 |1 - 2z|^2) on |z| = 2^{-1/2}, and |z - 1/2|^2 =
  |1 - 2z|^2 / 4 there, so Var zeta_1 = (1/16) int |1 - z|^{-2} = 1/8 because
  int dtheta/2pi / (3/2 - 2 cos(theta)/sqrt(2)) = 2.
* law_ii (mu = (2, 8), m = 4): single critical root gamma = -1/2 with
  Sigma(-1/2) = 1/4, mu_hat'(-1/2) = -6, |1 - gamma|^2 = 9/4, so the atom
  weight is 3 * (1/4) / ((9/4) * 36) = 1/108 and Var zeta_1 =
  (1/108) * |(-1/2) - 1/4|^2 = 1/192.
* law_i (mu = (2, 1), m = 1 + sqrt(2), second root lambda = 1 - sqrt(2)):
  summing the epoch series in closed form gives
  Var zeta_1 = (m + lambda) / (m^2 (m - lambda)(m - lambda^2))
             = 1 / (10 + 6 sqrt(2)).
* One-lag predictor at a single real atom gamma: c_1 =
  (gamma^{-1} - m)(gamma - 1/m) / |gamma - 1/m|^2, which for law_ii is
  (-6)(-3/4) / (9/16) = 8, with zero residual (rank-one measure).
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import pathlib
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmjfluct import limits
from cmjfluct.cli import main
from cmjfluct.errors import RefusalError
from cmjfluct.limits import (
    Autocovariance,
    _cov_matrix,
    _score_cross,
    _walk,
    build_spectrum,
    char_variance_full,
    cov_lagged,
    cov_pair,
    oscillation_profile,
    predictor_coeffs,
    sigma2_series,
    variance,
)
from cmjfluct.offspring import _polyval, _sigma_form, make_law, moments, validate_law
from cmjfluct.simulate import Trace, martingale_qv
from cmjfluct.spectral import _MAX_LAG, classify, eigen_direction


def _circle_density(report, tab, M: int):
    """Points and density at the angles ``2 pi j / M``: the contour route the exact spectrum is compared with.

    Faults when ``mu_hat = 1`` on the circle, or (via the Sigma form) when Sigma is negative there.
    """
    m = report.m
    radius = m**-0.5
    points = radius * np.exp(1j * (2.0 * np.pi * np.arange(M) / M))
    gap = np.abs(1.0 - _polyval(tab.mu, points))
    if gap.min() <= 1e-12:
        raise RuntimeError("mu_hat(z) = 1 on the integration circle; root geometry inconsistent with regime I")
    density = ((m - 1.0) / m) * _sigma_form(tab.sigma, points, radius**2) / (np.abs(1.0 - points) ** 2 * gap**2)
    return points, density


def _centered_symbol(a, m):
    """Coefficients of ``sum_k a_k (z^k - m^-k)`` as a raw Laurent symbol."""
    out, shift = {}, 0.0
    for k, c in a.items():
        out[int(k)] = out.get(int(k), 0.0) + float(c)
        shift += float(c) * m ** -int(k)
    out[0] = out.get(0, 0.0) - shift
    return out


def spectrum_of(law):
    report = classify(law)
    return report, build_spectrum(report, moments(law))


def ladder_law(eps):
    """law_ii with a (3, 7) atom of weight eps mixed in: regime I, margin about 0.31 eps."""
    return make_law([(0.5 - eps / 2, (1, 8)), (0.5 - eps / 2, (3, 8)), (eps, (3, 7))])


def test_lag_functions_refuse_lags_past_the_bound_by_name(gw13):
    # unbounded, cov_lagged(1, 10**5) takes about 13 s and predictor_coeffs(600) about 1 s: each refuses first.
    # Each lag or order is probed one past either end of its range, refused by name, and at both ends, accepted.
    report, spectrum = spectrum_of(gw13)
    refused = [
        (cov_lagged, (spectrum, 1, 10**5), "ell = 100000 is outside [0, 256]"),
        (cov_lagged, (spectrum, 1, -1), "ell = -1 is outside [0, 256]"),
        (cov_lagged, (spectrum, 1, 257), "ell = 257 is outside [0, 256]"),
        (cov_lagged, (spectrum, -257, 0), "k = -257 is outside [-256, 256]"),
        (cov_lagged, (spectrum, 257, 0), "k = 257 is outside [-256, 256]"),
        (predictor_coeffs, (spectrum, 2000), "K = 2000 is outside [0, 256]"),
        (predictor_coeffs, (spectrum, -1), "K = -1 is outside [0, 256]"),
        (predictor_coeffs, (spectrum, 257), "K = 257 is outside [0, 256]"),
        (variance, (spectrum, {1: 1.0, -257: 1.0}), "lag = -257 is outside [-256, 256]"),
        (variance, (spectrum, {257: 1.0}), "lag = 257 is outside [-256, 256]"),
        (_cov_matrix, (spectrum, [{1: 1.0}, {257: 1.0}]), "lag = 257 is outside [-256, 256]"),
        (sigma2_series, (gw13, report, {-1: 1.0}), "lag = -1 is outside [0, 256]"),
        (sigma2_series, (gw13, report, {1: 1.0, 257: 1.0}), "lag = 257 is outside [0, 256]"),
    ]
    start = time.perf_counter()
    for fn, args, message in refused:
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(*args)
    assert time.perf_counter() - start < 1.0
    accepted = [
        (cov_lagged, (spectrum, -_MAX_LAG, _MAX_LAG)),
        (cov_lagged, (spectrum, _MAX_LAG, 0)),
        (predictor_coeffs, (spectrum, 0)),
        (predictor_coeffs, (spectrum, _MAX_LAG)),
        (variance, (spectrum, {_MAX_LAG: 1.0, -_MAX_LAG: 1.0})),
        (variance, (spectrum, {300: 0.0, 1: 1.0})),  # a zero coefficient adds no lag
        (_cov_matrix, (spectrum, [{-_MAX_LAG: 1.0}, {_MAX_LAG: 1.0}])),
        (sigma2_series, (gw13, report, {0: 1.0, _MAX_LAG: 1.0})),
        (sigma2_series, (gw13, report, {300: 0.0, 1: 1.0})),
    ]
    for fn, args in accepted:
        result = fn(*args)
        assert np.all(np.isfinite(result.coeffs if fn is predictor_coeffs else result))


# ---------------------------------------------------------------- spectrum


def test_gw13_circle_spectrum_basics(gw13):
    report, spec = spectrum_of(gw13)
    assert spec.kind == "circle"
    assert spec.converged
    assert spec.grid_size == 0
    assert spec.radius == pytest.approx(2**-0.5, rel=1e-15)
    # gamma_h = int e^{i h theta} dnu: total mass first, then the AR recursion past K + 1
    _, density = _circle_density(report, moments(gw13), 1 << 12)
    assert spec.total_mass == pytest.approx(float(np.mean(density)), rel=1e-14)
    assert spec.total_mass > 0.1
    gamma = spec.moments.upto(12)
    assert np.array_equal(gamma[: len(spec.moments.gamma)], spec.moments.gamma)
    theta = 2.0 * np.pi * np.arange(1 << 12) / (1 << 12)
    for h in range(13):
        assert gamma[h] == pytest.approx(float(np.mean(density * np.cos(h * theta))), rel=1e-12, abs=1e-15)


def test_autocovariance_recursion_refuses_non_finite_lags():
    acov = Autocovariance(gamma=np.array([1.0, 0.5]), ar=np.array([1.0, -1e200]))
    assert acov.upto(1).tolist() == [1.0, 0.5]
    with pytest.raises(RuntimeError, match="left float64 before lag 4"):
        acov.upto(4)


def test_circle_density_memory_stays_linear_in_grid(early_law):
    # Sigma folds the covariance table once per radius, so a K = 80 law on
    # 2^16 points allocates O(M) arrays, never an (M, K + 1) power matrix (~170 MB)
    law = early_law(80)
    report, tab = classify(law), moments(law)
    assert report.regime == "I"
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _circle_density(report, tab, 1 << 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 32 * 2**20


def test_critical_law_spectrum_is_single_atom(law_ii):
    report, spec = spectrum_of(law_ii)
    assert spec.kind == "atoms"
    assert len(spec.atoms) == 1
    loc, weight = spec.atoms[0]
    assert loc == pytest.approx(-0.5, abs=1e-12)
    assert weight == pytest.approx(1.0 / 108.0, rel=1e-12)


def test_oscillating_law_spectrum_refused(law_iii):
    report = classify(law_iii)
    with pytest.raises(RefusalError):
        build_spectrum(report, moments(law_iii))


def test_nonsimple_critical_root_refused(nonsimple_ii):
    report = classify(nonsimple_ii)
    with pytest.raises(RefusalError):
        build_spectrum(report, moments(nonsimple_ii))


def test_negative_sigma_is_a_fault(law_i, law_ii):
    # a corrupted covariance table must fault, not clamp to a zero measure
    for law in (law_i, law_ii):
        tab = moments(law)
        with pytest.raises(ValueError, match="Sigma"):
            build_spectrum(classify(law), dataclasses.replace(tab, sigma=-tab.sigma))


def test_deterministic_law_has_zero_measure(det_gw):
    report, spec = spectrum_of(det_gw)
    assert spec.kind == "circle"
    assert spec.total_mass == 0.0
    assert variance(spec, {1: 1.0}) == 0.0


def test_degenerate_critical_atom_has_zero_weight(degenerate_ii):
    # litter noise cancels exactly at the critical root (N_2 = 2 N_1 + 4),
    # so the limit degenerates even though the law is genuinely random
    report, spec = spectrum_of(degenerate_ii)
    assert report.regime == "II"
    assert spec.atoms[0][1] == pytest.approx(0.0, abs=1e-15)
    assert variance(spec, {1: 1.0}) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------- variance values


def test_gw13_variance_matches_hand_value(gw13):
    _, spec = spectrum_of(gw13)
    assert variance(spec, {1: 1.0}) == pytest.approx(0.125, abs=1e-10)


def test_critical_law_variance_matches_hand_value(law_ii):
    _, spec = spectrum_of(law_ii)
    assert variance(spec, {1: 1.0}) == pytest.approx(1.0 / 192.0, rel=1e-12)


def test_two_age_variance_three_routes_agree(law_i):
    report, spec = spectrum_of(law_i)
    m = report.m
    lam = 1.0 - math.sqrt(2.0)
    closed = (m + lam) / (m**2 * (m - lam) * (m - lam**2))
    quad = variance(spec, {1: 1.0})
    series = sigma2_series(law_i, report, {1: 1.0})
    assert closed == pytest.approx(1.0 / (10.0 + 6.0 * math.sqrt(2.0)), rel=1e-14)
    assert quad == pytest.approx(closed, abs=1e-8)
    assert series == pytest.approx(closed, abs=1e-10)


@pytest.mark.parametrize("p", [1e-1, 1e-2, 1e-3])
def test_variance_stays_exact_as_growth_tends_to_one(p):
    # one child, or two with probability p: m = 1 + p and Var zeta_1 = p (1 - p) / m^3, as for gw13;
    # nu piles up near z = m^{-1/2} as m -> 1, so the statistics go through |z - 1/m|^2 dnu
    law = make_law([(1.0 - p, (1,)), (p, (2,))])
    report, spec = spectrum_of(law)
    assert report.m == pytest.approx(1.0 + p, rel=1e-14)
    expected = p * (1.0 - p) / report.m**3
    assert variance(spec, {1: 1.0}) == pytest.approx(expected, rel=1e-12)
    assert cov_lagged(spec, 1, 0) == pytest.approx(expected, rel=1e-12)


def test_variance_of_lag_zero_vanishes(gw13):
    # z^0 - m^0 is identically zero: the time-n count predicts itself
    _, spec = spectrum_of(gw13)
    assert variance(spec, {0: 5.0}) == 0.0


def test_variance_scales_quadratically(gw13):
    _, spec = spectrum_of(gw13)
    a = {1: 0.7, 3: -1.2}
    assert variance(spec, {k: 3.0 * c for k, c in a.items()}) == pytest.approx(
        9.0 * variance(spec, a), rel=1e-12
    )


@st.composite
def _regime_one_laws(draw):
    """Laws with K <= 40 and a score: 1-3 children at age 1 plus sparse later births, in 1-4 atoms."""
    K = draw(st.integers(1, 40))
    n_atoms = draw(st.integers(1, 4))
    k_phi = draw(st.integers(0, 4))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_atoms, max_size=n_atoms))
    atoms = []
    for w in weights:
        births = [draw(st.integers(1, 3))] + [0] * (K - 1)
        for age in draw(st.lists(st.integers(1, K - 1), max_size=4)) if K > 1 else []:
            births[age] += draw(st.integers(1, 2))
        char = draw(st.lists(st.integers(-3, 3), min_size=k_phi + 1, max_size=k_phi + 1))
        atoms.append((w / sum(weights), births, [float(c) for c in char]))
    return make_law(atoms, char_extends=draw(st.booleans()))


def _cross_on_grid(law, m, points):
    """The cross term of char_variance_full as a contour mean (the quadrature it replaced)."""
    cm = moments(law)
    n_sym = sum(c * points**k for k, c in _centered_symbol(dict(enumerate(cm.delta_lambda)), m).items())
    g = n_sym / ((points - 1.0) * (1.0 - _polyval(cm.mu, points)))
    births = points[:, None] ** np.arange(cm.gamma_phi.shape[1])
    c_sym = sum(np.conj(points) ** age * (births @ row) for age, row in enumerate(cm.gamma_phi))
    if law.char_extends:
        c_sym = c_sym + np.conj(points) ** len(cm.gamma_phi) / (1.0 - np.conj(points)) * (births @ cm.gamma_phi[-1])
    return float(np.mean(g * c_sym).real)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(law=_regime_one_laws(), data=st.data())
def test_exact_route_matches_contour_and_series(law, data):
    # the Toeplitz sums, the char cross term and the epoch series are three computations
    # of the same limits; a 2^14-point contour is exact to rounding at margin > 1e-2
    assume(not validate_law(law))
    report = classify(law)
    assume(report.regime == "I" and report.margin > 1e-2)
    tab, m = moments(law), report.m
    spec = build_spectrum(report, tab)
    points, density = _circle_density(report, tab, 1 << 14)

    def on_circle(f):
        return sum(c * points**k for k, c in f.items())

    def contour(f, lag=0):
        return float(np.mean(density * (points * math.sqrt(m)) ** lag * np.abs(on_circle(f)) ** 2).real)

    lags = data.draw(st.lists(st.integers(1, law.max_age + 2), min_size=1, max_size=4, unique=True))
    a = {k: data.draw(st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))) for k in lags}
    exact = variance(spec, a)
    assert exact == pytest.approx(contour(_centered_symbol(a, m)), rel=1e-10)
    assert exact == pytest.approx(sigma2_series(law, report, a), rel=1e-10)
    for k, ell in ((1, 0), (1, 3), (law.max_age, 1)):
        q = _centered_symbol({k: 1.0}, m)
        assert abs(cov_lagged(spec, k, ell) - contour(q, lag=ell)) <= 1e-10 * contour(q)
    vals = np.array([on_circle(_centered_symbol({k: 1.0}, m)) for k in range(-1, 9) if k])
    gram = ((vals * density) @ np.conj(vals).T).real / len(points)
    cov = _cov_matrix(spec, [{k: 1.0} for k in range(-1, 9) if k])
    assert np.array_equal(cov, cov.T)
    assert np.max(np.abs(cov - gram)) <= 1e-10 * np.max(gram)
    cross = _cross_on_grid(law, m, points)
    scale = max(abs(cross), float(np.max(np.abs(tab.gamma_phi))))
    assert abs(_score_cross(law, m) - cross) <= 1e-10 * scale


def test_series_matches_quadrature_on_random_vectors(gw13, law_i):
    rng = np.random.default_rng(20240817)
    for law in (gw13, law_i):
        report, spec = spectrum_of(law)
        for _ in range(25):
            lags = rng.choice(np.arange(1, 9), size=rng.integers(1, 5), replace=False)
            a = {int(k): float(rng.standard_normal()) for k in lags}
            quad = variance(spec, a)
            series = sigma2_series(law, report, a)
            assert abs(quad - series) <= 1e-8 * max(1.0, abs(quad))


@pytest.mark.parametrize("eps", [3.2e-4, 3.2e-5, 3.2e-6, 3.2e-7])
def test_boundary_ladder_tends_to_half_the_critical_variance(eps):
    # margin * sigma^2_I(e_1) -> sigma^2_II(e_1) / 2 = 1/384 as the ladder law approaches law_ii,
    # with a correction linear in the margin (about 5.9 margin); the grid could not resolve these laws
    law = ladder_law(eps)
    report = classify(law)
    assert report.regime == "I" and report.margin == pytest.approx(eps / 3.2, rel=0.05)
    spec = build_spectrum(report, moments(law))
    assert abs(384.0 * report.margin * variance(spec, {1: 1.0}) - 1.0) <= 10.0 * report.margin
    rule = predictor_coeffs(spec, 3)
    assert np.all(np.isfinite(rule.coeffs)) and math.isfinite(rule.residual_sq)


def test_boundary_continuity_on_generated_regime_two_laws():
    # Two-age laws with mean litters (s^2 - s, s^3) are regime II at m = s^2 with critical root -1/s.  Mixing in an
    # atom (a, b - 1) at weight eps pushes each into regime I, and margin * sigma^2_I(k) -> sigma^2_II(k) / 2 with an
    # error linear in the margin, so 100x less eps gives about 100x less error.  When e = d s, Sigma vanishes at the
    # critical root: sigma^2_II = 0 and sigma^2_I stays bounded, so margin * sigma^2_I itself falls with the margin.
    # At eps = 1e-7 the margin (about 1e-9) keeps only about 8 digits, which bounds how far the last step can fall.
    rng = np.random.default_rng(3)
    degenerate = 0
    for s in (2, 3, 4) * 4:
        a, b = s * s - s, s**3
        d, e = int(rng.integers(1, a + 1)), int(rng.integers(0, b))
        base = make_law([(0.5, (a - d, b - e)), (0.5, (a + d, b + e))])
        base_report, critical = spectrum_of(base)
        assert base_report.regime == "II"
        degenerate += e == d * s
        for k in (1, 2):
            sigma2_ii = variance(critical, {k: 1.0})
            errors = []
            for eps in (1e-3, 1e-5, 1e-7):
                report, spec = spectrum_of(
                    make_law([(0.5 - eps / 2, (a - d, b - e)), (0.5 - eps / 2, (a + d, b + e)), (eps, (a, b - 1))])
                )
                assert report.regime == "I"
                scaled = report.margin * variance(spec, {k: 1.0})
                errors.append(scaled if e == d * s else abs(2.0 * scaled / sigma2_ii - 1.0))
            if e == d * s:
                assert sigma2_ii <= 1e-15
                assert all(0.008 <= after / before <= 0.0125 for before, after in zip(errors, errors[1:]))
            else:
                assert 0.008 <= errors[1] / errors[0] <= 0.0125
                assert errors[2] / errors[1] <= 0.05
    assert 0 < degenerate < 12


@pytest.mark.parametrize("eps", [0.032, 0.0864])
def test_series_agrees_with_exact_route_where_its_forms_overflow(eps):
    # at margins 1e-2 and 2.7e-2 the per-epoch forms overflow float64 long before the weights shrink them
    # (martingale_qv still raises there); the Stein solve never forms them, so it must agree with the exact route
    law = ladder_law(eps)
    report = classify(law)
    assert report.regime == "I"
    exact = variance(build_spectrum(report, moments(law)), {1: 1.0})
    assert sigma2_series(law, report, {1: 1.0}) == pytest.approx(exact, rel=1e-13)


def test_series_near_the_boundary_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eps in (0.032, 3.2e-6):
            law = ladder_law(eps)
            assert math.isfinite(sigma2_series(law, classify(law), {1: 1.0}))


# Mixed signs, and lags past the ladder law's K = 2.
_LADDER_VECTORS = ({1: 1.0, 2: -0.6, 4: 0.35}, {2: 1.0, 3: -1.5, 7: 0.8}, {1: -0.4, 5: 1.0})


@pytest.mark.parametrize(
    ("eps", "bound"),
    # margins 1e-1 .. 1e-6; measured worst relative gaps 5.1e-15, 1.5e-14, 4.8e-14, 2.1e-13, 1.0e-12, 3.9e-10
    [(0.32, 1e-13), (0.032, 1e-13), (0.0032, 1e-13), (3.2e-4, 5e-12), (3.2e-5, 5e-12), (3.2e-6, 1e-9)],
)
def test_series_matches_exact_route_down_the_boundary_ladder(eps, bound):
    law = ladder_law(eps)
    report = classify(law)
    assert report.regime == "I" and report.margin == pytest.approx(eps / 3.2, rel=0.07)
    spec = build_spectrum(report, moments(law))
    for a in _LADDER_VECTORS:
        series = sigma2_series(law, report, a)
        assert math.isfinite(series)
        assert abs(series - variance(spec, a)) <= bound * variance(spec, a)


def test_series_raises_by_name_when_the_doubling_does_not_converge(law_ii):
    # on the boundary T / sqrt(m) has an eigenvalue of modulus 1, so P grows without bound but stays finite
    report = dataclasses.replace(classify(law_ii), regime="I")
    with pytest.raises(RuntimeError, match=r"did not converge within 64 doublings"):
        sigma2_series(law_ii, report, {1: 1.0})


def test_series_raises_by_name_when_the_solve_leaves_float64(law_iii):
    # past the boundary T / sqrt(m) expands, and its squares overflow within a few dozen doublings
    report = dataclasses.replace(classify(law_iii), regime="I")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"Stein solve left float64"):
            sigma2_series(law_iii, report, {1: 1.0})


def test_qv_overflow_raises_at_its_epoch():
    # the ladder law's epoch forms overflow float64 after about 520 epochs; a
    # path of 600 single births reaches them, and the sum must refuse there
    law = ladder_law(0.032)
    trace = Trace(cohort_atoms=((1,),) * 601, litters=((0, 1),), seed=0, cap=1 << 62, capped=False)  # B_n = 1 at every n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"at epoch \d+") as err:
            martingale_qv(trace, moments(law), {1: 1.0}, 600)
    epoch = int(re.search(r"at epoch (\d+)", str(err.value)).group(1))
    assert 100 < epoch < 600


def test_series_refused_outside_gaussian_regime(law_ii, law_iii):
    for law in (law_ii, law_iii):
        with pytest.raises(RefusalError):
            sigma2_series(law, classify(law), {1: 1.0})


def test_series_rejects_negative_lags(gw13):
    with pytest.raises(ValueError):
        sigma2_series(gw13, classify(gw13), {-1: 1.0})


def test_series_of_empty_vector_is_zero(gw13):
    assert sigma2_series(gw13, classify(gw13), {}) == 0.0
    assert sigma2_series(gw13, classify(gw13), {2: 0.0}) == 0.0


# ---------------------------------------------------------------- inner product


def test_cov_pair_recovers_variance(gw13, law_ii):
    for law in (gw13, law_ii):
        _, spec = spectrum_of(law)
        m = spec.m
        for k in (1, 2, 3):
            f = {k: 1.0, 0: -(m**-k)}
            assert cov_pair(spec, f, f) == pytest.approx(variance(spec, {k: 1.0}), rel=1e-12)


def test_cov_pair_of_constant_symbol_is_total_mass(gw13):
    # the raw symbol 1 is the statistic normalizing the count itself
    _, spec = spectrum_of(gw13)
    assert cov_pair(spec, {0: 1.0}, {0: 1.0}) == pytest.approx(spec.total_mass, rel=1e-14)


def test_cov_pair_symmetric_and_bilinear(gw13):
    _, spec = spectrum_of(gw13)
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = {int(k): float(rng.standard_normal()) for k in rng.integers(-2, 5, size=3)}
        g = {int(k): float(rng.standard_normal()) for k in rng.integers(-2, 5, size=3)}
        h = {int(k): float(rng.standard_normal()) for k in rng.integers(-2, 5, size=3)}
        assert cov_pair(spec, f, g) == pytest.approx(cov_pair(spec, g, f), abs=1e-12)
        fg = {k: f.get(k, 0.0) + 2.5 * g.get(k, 0.0) for k in set(f) | set(g)}
        assert cov_pair(spec, fg, h) == pytest.approx(
            cov_pair(spec, f, h) + 2.5 * cov_pair(spec, g, h), abs=1e-10
        )


def test_cov_pair_cauchy_schwarz(gw13, law_ii):
    rng = np.random.default_rng(11)
    for law in (gw13, law_ii):
        _, spec = spectrum_of(law)
        for _ in range(20):
            f = {int(k): float(rng.standard_normal()) for k in rng.integers(-2, 7, size=3)}
            g = {int(k): float(rng.standard_normal()) for k in rng.integers(-2, 7, size=3)}
            bound = math.sqrt(max(cov_pair(spec, f, f), 0.0) * max(cov_pair(spec, g, g), 0.0))
            assert abs(cov_pair(spec, f, g)) <= bound + 1e-12


def test_gram_matrix_psd_across_lags(gw13, law_i, law_ii):
    for law in (gw13, law_i, law_ii):
        _, spec = spectrum_of(law)
        m = spec.m
        lags = range(-2, 7)
        symbols = [{k: 1.0, 0: (-(m**-k) if k != 0 else 0.0)} for k in lags]
        for s in symbols:
            if 0 in s and len(s) == 1:
                s[0] = 0.0
        gram = np.array([[cov_pair(spec, f, g) for g in symbols] for f in symbols])
        assert np.min(np.linalg.eigvalsh((gram + gram.T) / 2.0)) >= -1e-10


def test_lagged_covariance_alternates_at_negative_critical_root(law_ii):
    _, spec = spectrum_of(law_ii)
    base = cov_lagged(spec, 1, 0)
    assert base == pytest.approx(1.0 / 192.0, rel=1e-12)
    for ell in range(1, 7):
        assert cov_lagged(spec, 1, ell) == pytest.approx(((-1.0) ** ell) * base, rel=1e-12)


def test_lagged_covariance_decays_on_circle(gw13):
    _, spec = spectrum_of(gw13)
    base = variance(spec, {1: 1.0})
    assert cov_lagged(spec, 1, 0) == pytest.approx(base, rel=1e-12)
    assert abs(cov_lagged(spec, 1, 256)) < 0.02 * base


def test_lagged_rejects_negative_separation(gw13):
    _, spec = spectrum_of(gw13)
    with pytest.raises(ValueError):
        cov_lagged(spec, 1, -1)


# ---------------------------------------------------------------- characteristics


def test_centered_coin_scored_at_age_one():
    law = make_law(
        [
            (0.25, (1,), (0.0, 1.0)),
            (0.25, (1,), (0.0, -1.0)),
            (0.25, (3,), (0.0, 1.0)),
            (0.25, (3,), (0.0, -1.0)),
        ]
    )
    report, spec = spectrum_of(law)
    assert char_variance_full(law, report, spec) == pytest.approx(0.25, rel=1e-14)


def test_full_equals_centered_for_independent_coin(gw13_coin):
    report, spec = spectrum_of(gw13_coin)
    full = char_variance_full(gw13_coin, report, spec)
    assert full == pytest.approx(0.5, abs=1e-12)


def test_full_deterministic_char_reduces_to_count_statistic():
    # a characteristic with no randomness scores a deterministic window of
    # past counts, so the full formula must collapse to the plain variance of
    # the increment vector
    rng = np.random.default_rng(99)
    for _ in range(20):
        c0, c1 = rng.standard_normal(2)
        law = make_law([(0.5, (1,), (c0, c1)), (0.5, (3,), (c0, c1))])
        report, spec = spectrum_of(law)
        delta = {0: c0, 1: c1 - c0, 2: -c1}
        full = char_variance_full(law, report, spec)
        assert abs(full - variance(spec, delta)) <= 1e-10


def test_full_constant_extending_char_vanishes(gw13_alive):
    # scoring 1 forever just recounts the population: no extra fluctuation
    report, spec = spectrum_of(gw13_alive)
    assert char_variance_full(gw13_alive, report, spec) == pytest.approx(0.0, abs=1e-12)


def test_full_litter_size_char_matches_next_count_statistic():
    # phi(0) = own litter size, zero afterwards: the scored total is exactly
    # the next generation's count, so the limit must be the lag -1 variance
    law = make_law([(0.5, (1,), (1.0,)), (0.5, (3,), (3.0,))])
    report, spec = spectrum_of(law)
    full = char_variance_full(law, report, spec)
    assert full == pytest.approx(variance(spec, {-1: 1.0}), abs=1e-10)
    assert full == pytest.approx(1.0, abs=1e-10)


def test_full_refused_outside_gaussian_regime(gw13_coin):
    law = make_law([(0.5, (1, 8), (1.0,)), (0.5, (3, 8), (1.0,))])
    report = classify(law)
    assert report.regime == "II"
    spec = build_spectrum(report, moments(law))
    with pytest.raises(RefusalError):
        char_variance_full(law, report, spec)
    # a regime-I law handed another law's atoms spectrum
    with pytest.raises(RefusalError, match="^need the circle-form spectrum of the same law$"):
        char_variance_full(gw13_coin, classify(gw13_coin), spec)


def test_full_requires_characteristic(gw13):
    report, spec = spectrum_of(gw13)
    with pytest.raises(ValueError):
        char_variance_full(gw13, report, spec)


# ---------------------------------------------------------------- predictor


def test_predictor_single_atom_one_lag_is_exact(law_ii):
    _, spec = spectrum_of(law_ii)
    rule = predictor_coeffs(spec, 1)
    assert rule.coeffs[0] == pytest.approx(8.0, rel=1e-10)
    assert rule.target_sq == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rule.residual_sq <= 1e-12
    assert not rule.regularized


def test_predictor_orthogonality(gw13, law_ii):
    for law, K in ((gw13, 3), (law_ii, 1)):
        _, spec = spectrum_of(law)
        rule = predictor_coeffs(spec, K)
        m = spec.m
        target = {-1: 1.0, 0: -m}
        residual = dict(target)
        for j, c in enumerate(rule.coeffs, start=1):
            residual[j] = residual.get(j, 0.0) - c
            residual[0] = residual.get(0, 0.0) + c * m**-j
        for k in range(1, K + 1):
            basis = {k: 1.0, 0: -(m**-k)}
            assert abs(cov_pair(spec, residual, basis)) <= 1e-10


def _symbol_on_reference(points, coeffs):
    out = np.zeros(points.shape, dtype=complex)
    for k, c in coeffs.items():
        if c != 0.0:
            out += c * points ** int(k)
    return out


def _measure(law, spec):
    """Support and weights: the atoms themselves, or a 2^14-point contour grid of the circle density."""
    if spec.kind == "atoms":
        return np.array([g for g, _ in spec.atoms], dtype=complex), np.array([w for _, w in spec.atoms])
    points, density = _circle_density(classify(law), moments(law), 1 << 14)
    return points, density / len(points)


def _cov_pair_reference(measure, f, g):
    support, weights = measure
    vals = _symbol_on_reference(support, f) * np.conj(_symbol_on_reference(support, g))
    return float(complex(np.sum(weights * vals)).real)


def _predictor_reference(measure, m, K):
    """The normal equations built one inner product at a time, each symbol re-evaluated per entry."""
    target = {-1: 1.0, 0: -m}
    target_sq = _cov_pair_reference(measure, target, target)
    basis = [_centered_symbol({k: 1.0}, m) for k in range(1, K + 1)]
    gram = np.array([[_cov_pair_reference(measure, bj, bk) for bk in basis] for bj in basis])
    rhs = np.array([_cov_pair_reference(measure, target, bk) for bk in basis])
    regularized = False
    try:
        if np.linalg.cond(gram) > 1e12:
            raise np.linalg.LinAlgError
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        regularized = True
        coeffs = np.linalg.solve(gram + 1e-12 * np.trace(gram) * np.eye(K), rhs)
    residual_sq = target_sq - 2.0 * float(rhs @ coeffs) + float(coeffs @ gram @ coeffs)
    return coeffs, max(residual_sq, 0.0), target_sq, regularized, gram, rhs


def test_predictor_matches_pairwise_normal_equations(law_i, gw13_coin, law_ii, pair_ii):
    # the normal equations built one inner product at a time, on the atoms or on a contour grid of the circle;
    # a ridge amplifies 1e-16 rounding by 1e12, so a regularized solve is held to the reference's ridge system
    law_k10 = make_law([(0.3, (1, 0, 1, 0, 0, 1, 0, 0, 0, 1)), (0.7, (2, 1, 0, 0, 1, 0, 0, 0, 0, 0))])
    for law in (law_i, gw13_coin, law_k10, law_ii, pair_ii):
        _, spec = spectrum_of(law)
        measure = _measure(law, spec)
        for K in range(1, 9):
            rule = predictor_coeffs(spec, K)
            coeffs, residual_sq, target_sq, regularized, gram, rhs = _predictor_reference(measure, spec.m, K)
            basis = [_centered_symbol({k: 1.0}, spec.m) for k in range(1, K + 1)]
            pairs = np.array([[cov_pair(spec, f, g) for g in basis] for f in basis])
            assert rule.regularized == regularized
            assert np.max(np.abs(pairs - gram)) <= 1e-12 * np.max(np.abs(gram))
            assert rule.target_sq == pytest.approx(target_sq, rel=1e-12)
            assert rule.residual_sq == pytest.approx(residual_sq, rel=1e-12, abs=1e-12 * target_sq)
            if regularized:
                ridge = gram + 1e-12 * np.trace(gram) * np.eye(K)
                scale = np.linalg.norm(ridge, 2) * np.linalg.norm(rule.coeffs) + np.linalg.norm(rhs)
                assert np.linalg.norm(ridge @ rule.coeffs - rhs) <= 1e-13 * scale
            else:
                assert np.max(np.abs(rule.coeffs - coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(coeffs)))


def _quotient_symbol(a, m):
    """Coefficients of ``sum_k a_k (z^k - m^-k) / (z - 1/m)`` by explicit powers, summed termwise.

    The quotient is ``sum_{j<k} m^-(k-1-j) z^j`` for ``k > 0`` and ``-sum_{j<n} m^(j+1) z^(j-n)`` for ``k = -n < 0``.
    """
    out = {}
    for k, c in a.items():
        terms = [(j, m ** -(k - 1 - j)) for j in range(k)] if k > 0 else [(j + k, -(m ** (j + 1))) for j in range(-k)]
        for j, w in terms:
            out[j] = out.get(j, 0.0) + float(c) * w
    return out


def _cov_matrix_reference(spec, vectors):
    """The circle covariance route the lag table replaced: quotient symbols on a Toeplitz matrix of ``centered``."""
    fs = [_quotient_symbol(a, spec.m) for a in vectors]
    keys = [k for f in fs for k in f] or [0]
    lo, hi = min(keys), max(keys)
    rows = np.zeros((len(fs), hi - lo + 1))
    for row, f in zip(rows, fs):
        row[[k - lo for k in f]] = list(f.values())
    rows = rows * spec.radius ** np.arange(lo, hi + 1)
    idx = np.arange(hi - lo + 1)
    gram = rows @ spec.centered.upto(hi - lo)[np.abs(idx[:, None] - idx)] @ rows.T
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize(
    "case",
    [("early", K) for K in (2, 10, 40, 80)]
    + [("ladder", eps) for eps in (0.32, 0.032, 3.2e-3, 3.2e-4, 3.2e-5, 3.2e-6)]
    + [("growth", p) for p in (1e-1, 1e-2, 1e-3)],
    ids=lambda case: f"{case[0]}-{case[1]:g}",
)
def test_lag_table_matches_toeplitz_reference(case, early_law):
    # the table's recursions against the quotient-symbol Toeplitz sums, at ladder margins 1e-1..1e-6 and m -> 1;
    # both agree to about 1.2e-15 of sqrt(C_jj C_kk) on these laws, so 1e-14 leaves room for other BLAS builds
    family, x = case
    law = {
        "early": lambda: early_law(x),
        "ladder": lambda: ladder_law(x),
        "growth": lambda: make_law([(1.0 - x, (1,)), (x, (2,))]),
    }[family]()
    report, spec = spectrum_of(law)
    assert report.regime == "I"
    lags = [k for k in range(-3, 17) if k]
    got = _cov_matrix(spec, [{k: 1.0} for k in lags])
    want = _cov_matrix_reference(spec, [{k: 1.0} for k in lags])
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    assert np.array_equal(got, got.T)
    rng = np.random.default_rng(20261018)
    sd = dict(zip(lags, np.sqrt(np.diag(want))))
    for _ in range(50):
        a = {int(k): float(rng.standard_normal()) for k in rng.choice(lags, size=rng.integers(1, 6), replace=False)}
        bound = 1e-14 * sum(abs(c) * sd[k] for k, c in a.items()) ** 2
        assert abs(variance(spec, a) - _cov_matrix_reference(spec, [a])[0, 0]) <= bound


def _predictor_bytes(rule):
    return rule.coeffs.tobytes(), rule.residual_sq, rule.target_sq, rule.regularized


def test_lag_table_reads_the_same_bits_whatever_was_asked_first(law_i, law_ii, pair_ii, early_law):
    # every entry takes the same flops however the table grew, so no answer depends on the calls before it;
    # the answers span lags that some histories build at once and others reach by growing
    histories = [
        [],
        [lambda s: predictor_coeffs(s, 8)],
        [lambda s: predictor_coeffs(s, K) for K in range(1, 9)],
        [lambda s: predictor_coeffs(s, 40), lambda s: variance(s, {-20: 1.0})],
        [lambda s: variance(s, {-4: 0.5, 12: 1.0}), lambda s: predictor_coeffs(s, 13)],
    ]
    a, vectors = {1: 0.7, 3: -1.2, -1: 0.4, -9: 0.3, 12: 0.5}, [{1: 1.0}, {2: 1.0, -1: -0.5}, {17: 1.0, -6: 2.0}]
    for law in (law_i, early_law(10), law_ii, pair_ii):
        report, tab = classify(law), moments(law)
        seen = set()
        for history in histories:
            spec = build_spectrum(report, tab)
            for call in history:
                call(spec)
            answer = [_predictor_bytes(predictor_coeffs(spec, K)) for K in (3, 20)] + [variance(spec, a)]
            seen.add((*answer, _cov_matrix(spec, vectors).tobytes()))
        assert len(seen) == 1


def test_atoms_match_per_atom_sums(law_ii, degenerate_ii, pair_ii):
    # the atoms read the same moment matrix as the circle; against sums over the atoms themselves the worst gap on
    # these laws is 6.8e-16 of the reference's scale, the same sums with every coefficient's term taken in |.|
    rng = np.random.default_rng(20261019)
    for law in (law_ii, degenerate_ii, pair_ii):
        _, spec = spectrum_of(law)
        assert spec.kind == "atoms"
        m, (gammas, weights) = spec.m, _measure(law, spec)
        lags = [k for k in range(-3, 9) if k]
        mixed = [rng.choice(lags, size=rng.integers(2, 5), replace=False) for _ in range(20)]
        for a in [{k: 1.0} for k in lags] + [{int(k): float(rng.standard_normal()) for k in ks} for ks in mixed]:
            values = weights * np.abs(_symbol_on_reference(gammas, _centered_symbol(a, m))) ** 2
            scale = np.sum(weights * sum(abs(c) * np.abs(gammas**k - m**-k) for k, c in a.items()) ** 2)
            assert abs(variance(spec, a) - np.sum(values)) <= 1e-14 * scale
        for k in (-2, 1, 3):
            for ell in range(5):
                values = weights * (gammas * math.sqrt(m)) ** ell * np.abs(gammas**k - m**-k) ** 2
                assert abs(cov_lagged(spec, k, ell) - np.sum(values).real) <= 1e-14 * np.sum(np.abs(values))


def test_lag_past_float64_faults_without_spoiling_other_lags():
    # m = 6: zeta_{-256} has a variance of order m^512, past float64; lag 1 keeps its exact 1/m^3
    _, spec = spectrum_of(make_law([(0.5, (5,)), (0.5, (7,))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"lags -256\.\.1 left float64"):
            _cov_matrix(spec, [{1: 1.0}, {-256: 1.0}])
        assert variance(spec, {1: 1.0, -256: 0.0}) == pytest.approx(1.0 / 216.0, rel=1e-12)
        assert 1e200 < variance(spec, {-150: 1.0}) < math.inf
    # m = 20: the power r^-512 = m^256 itself is past float64
    _, spec = spectrum_of(make_law([(0.5, (19,)), (0.5, (21,))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"lags -256\.\.1 left float64"):
            _cov_matrix(spec, [{1: 1.0}, {-256: 1.0}])
        assert variance(spec, {1: 1.0}) == pytest.approx(1.0 / 8000.0, rel=1e-12)


def test_pairings_past_float64_fault_by_name():
    # m = 6: zeta_{-256}, zeta_{-200} and the raw symbol z^-400 pair past float64; zeta_{-150} stays finite
    _, spec = spectrum_of(make_law([(0.5, (5,)), (0.5, (7,))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"zeta_-256 at lag ell = 0 left float64"):
            cov_lagged(spec, -256, 0)
        with pytest.raises(RuntimeError, match=r"zeta_-200 at lag ell = 3 left float64"):
            cov_lagged(spec, -200, 3)
        with pytest.raises(RuntimeError, match=r"pairing of \{-400: 1\.0\} with \{-400: 1\.0\} left float64"):
            cov_pair(spec, {-400: 1.0}, {-400: 1.0})
        assert cov_lagged(spec, -150, 0) == variance(spec, {-150: 1.0}) == 1.3013133825812566e232


def test_a_covariance_below_float64_faults_by_name(tmp_path, capsys):
    # m = 36: the variance of zeta_256 is about 36^-256, some 1e-398, which is 0 in float64, and that of zeta_196 a
    # subnormal; both read as such without a fault (2.2e-315 at lag 200).  Lag 195 stays normal, and a lag whose
    # variance underflows costs a vector nothing when the vector's variance stays normal
    atoms = [(0.5, (29, 216)), (0.5, (31, 216))]
    _, spec = spectrum_of(make_law(atoms))
    assert spec.m == 36.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (196, 200, _MAX_LAG):
            with pytest.raises(RuntimeError, match=rf"variance over the lags 0\.\.{k} is below float64's normal"):
                variance(spec, {k: 1.0})
            for ell in (0, 3):
                with pytest.raises(RuntimeError, match=rf"zeta_{k} at lag ell = {ell} is below float64's normal"):
                    cov_lagged(spec, k, ell)
        assert 1e-308 < variance(spec, {195: 1.0}) == cov_lagged(spec, 195, 0) < 1e-306
        assert variance(spec, {1: 1.0, _MAX_LAG: 1.0}) == variance(spec, {1: 1.0})
        # a zero measure reads 0 at any lag, however small the scale
        _, zero = spectrum_of(make_law([(1.0, (36,))]))
        assert variance(zero, {_MAX_LAG: 1.0}) == cov_lagged(zero, _MAX_LAG, 3) == 0.0
    config = {"command": "limits", "law": {"atoms": [{"prob": p, "births": list(b)} for p, b in atoms]},
              "lags": [_MAX_LAG], "outdir": str(tmp_path / "out")}
    (tmp_path / "limits.json").write_text(json.dumps(config))
    assert main([str(tmp_path / "limits.json")]) == 3
    assert f"variance over the lags 0..{_MAX_LAG} is below float64's normal range" in capsys.readouterr().err


def test_a_raw_pairing_below_float64_faults_by_name():
    # the same m = 36 law: {400} paired with itself read 0.0 and {200} 2.2e-315 without a fault; the rule reads the
    # pairing's scale, not its value, so a pairing that cancels to 0 at a normal scale still reads 0
    _, spec = spectrum_of(make_law([(0.5, (29, 216)), (0.5, (31, 216))]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, g in (({400: 1.0}, {400: 1.0}), ({200: 1.0}, {200: 1.0}), ({1: 1.0, 400: 1.0}, {400: 1.0})):
            with pytest.raises(RuntimeError, match=re.escape(f"the pairing of {f} with {g} is below float64's normal")):
                cov_pair(spec, f, g)
        assert 1e-308 < cov_pair(spec, {195: 1.0}, {195: 1.0}) < 1e-306
        assert cov_pair(spec, {400: 1.0}, {}) == cov_pair(spec, {400: 0.0}, {400: 1.0}) == 0.0
        _, zero = spectrum_of(make_law([(1.0, (30, 216))]))  # a zero measure reads 0, however small the scale
        assert zero.total_mass == 0.0 and cov_pair(zero, {400: 1.0}, {400: 1.0}) == 0.0


@pytest.mark.parametrize("name", ["gw13", "law_i", "law_ii", "m6"])
def test_lagged_covariance_at_lag_zero_is_the_variance_bit_for_bit(name, request):
    # cov_lagged walks q_k by the lag table's own recursion, so at ell = 0 it reads the table's diagonal exactly
    law = make_law([(0.5, (5,)), (0.5, (7,))]) if name == "m6" else request.getfixturevalue(name)
    _, spec = spectrum_of(law)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-_MAX_LAG, _MAX_LAG + 1):
            try:
                expected = variance(spec, {k: 1.0})
            except RuntimeError:
                continue
            assert cov_lagged(spec, k, 0) == expected, k
            checked += 1
    assert checked > _MAX_LAG  # at m = 6 the variance leaves float64 only at far negative lags


def _lagged_walk_reference(spec, k, ell):
    """``cov_lagged`` by a walk of its own: ``q`` walked down the centered moment matrix at time lag ``ell``, then
    across, and the diagonal entry for ``k`` read.

    That matrix is ``Re int (z m^(1/2))^ell z^a conj(z)^b |z - 1/m|^2 dnu``: ``r^{a+b} gamma_{|ell+a-b|}`` on the
    circle, ``sum_p w_p |gamma_p - 1/m|^2 (gamma_p m^(1/2))^ell gamma_p^a conj(gamma_p)^b`` with atoms.
    """
    lo, hi, m = min(k, 0), max(k, 0), spec.m
    e = np.arange(lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "circle":
            gamma = spec.centered.upto(ell + len(e))
            matrix = np.float64(spec.radius) ** (e[:, None] + e) * gamma[np.abs(ell + e[:, None] - e)]
        else:
            matrix = np.zeros((len(e), len(e)), dtype=complex)
            for g, w in spec.atoms:
                powers = np.complex128(g) ** e
                matrix += w * abs(g - 1.0 / m) ** 2 * (g * math.sqrt(m)) ** ell * (powers[:, None] * np.conj(powers))
            matrix = matrix.real
        raw = _walk(_walk(matrix, m, lo, hi).T, m, lo, hi)
    return float(raw[0, 0] if k < 0 else raw[-1, -1])


_LAGGED_LAWS = {
    "m6": [(0.5, (5,)), (0.5, (7,))],
    "correlated_ages": [(0.3, (1, 0, 2)), (0.7, (2, 1, 0))],
    "m9_ii": [(0.5, (5, 27)), (0.5, (7, 27))],  # mu = (6, 27): regime II at -1/3, m = 9
    "m12": [(0.5, (11,)), (0.5, (13,))],
}


@pytest.mark.parametrize("name", ["gw13", "law_i", "law_ii", "pair_ii", "m6", "correlated_ages", "m9_ii", "m12"])
def test_lagged_covariance_matches_a_walk_at_its_time_lag(name, request):
    # cov_lagged reads two lag-table entries, m^(ell/2) (C[k+ell, k] - m^-k C[ell, k]); the reference walks a
    # moment matrix at the time lag, as cov_lagged once did.  At m = 9 and 12, C[k+ell, k] near lag 512 lies below
    # float64's normal range (C[512, 256] is about 3^-768 at m = 9), so only the table's scaled entries keep
    # (256, 256) equal to the variance on the regime-II law.  The worst gap is 1.2e-13 of the variance (pair_ii),
    # 3e-15 on the regime-I laws.  A lagged value 30 or more orders below the variance is lost in either route's
    # roundoff, so the two may differ in relative terms there: (3, 256) on the correlated-age law reads -1.4e-61 by
    # the walk and -5.1e-61 from the table, against a variance of 1.1e-2.
    law = make_law(_LAGGED_LAWS[name]) if name in _LAGGED_LAWS else request.getfixturevalue(name)
    _, spec = spectrum_of(law)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (256, -256, -150, -53, 2, -2, 1, -1, 3, 17, 100, 213):
            try:
                scale = cov_lagged(spec, k, 0)
            except RuntimeError:
                scale = None  # zeta_-256 at m = 6: the variance is past float64, its far lags are not
            for ell in (0, 1, 2, 5, 100, 255, 256):
                want = _lagged_walk_reference(spec, k, ell)
                if not math.isfinite(want):
                    with pytest.raises(RuntimeError, match=rf"zeta_{k} at lag ell = {ell} left float64"):
                        cov_lagged(spec, k, ell)
                    continue
                got = cov_lagged(spec, k, ell)
                assert abs(got - want) <= 1e-12 * (abs(want) if scale is None else scale), (k, ell, got, want)
                checked += 1
    assert checked >= 70


@pytest.mark.parametrize("name", ["law_i", "pair_ii", "m6", "m9_ii", "m12"])
def test_the_lag_table_reads_a_walk_in_plain_powers(name, request):
    # the table walks zeta in the unit m^(1/2) and unscales on the read; over lags -256..256 every entry read through
    # _lag_cov is within 1e-12 sqrt(C_jj C_kk) of a walk of plain powers wherever that walk is a normal float.  The
    # worst gaps on these laws run from 1.1e-14 (law_i) to 1.35e-13 (m9_ii)
    law = make_law(_LAGGED_LAWS[name]) if name in _LAGGED_LAWS else request.getfixturevalue(name)
    _, spec = spectrum_of(law)
    lo, hi, m = -_MAX_LAG, _MAX_LAG, spec.m
    e = np.arange(lo, hi)
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "circle":
            matrix = np.float64(spec.radius) ** (e[:, None] + e) * spec.centered.upto(hi - lo)[np.abs(e[:, None] - e)]
        else:
            matrix = np.zeros((len(e), len(e)), dtype=complex)
            for g, w in spec.atoms:
                powers = np.complex128(g) ** e
                matrix += w * abs(g - 1.0 / m) ** 2 * (powers[:, None] * np.conj(powers))
            matrix = matrix.real
        plain = _walk(_walk(matrix, m, lo, hi).T, m, lo, hi)
        plain = 0.5 * (plain + plain.T)
        table = spec._lag_cov(lo, hi)
        sd = np.sqrt(np.diag(plain))
        scale = np.outer(sd, sd)
        gap = np.abs(table - plain) / scale
    normal = np.isfinite(plain) & (np.abs(plain) >= np.finfo(float).tiny) & np.isfinite(scale)
    assert normal[_MAX_LAG:, _MAX_LAG:].mean() > 0.99  # the positive lags, which the unit keeps in range, are read
    assert gap[normal].max() <= 1e-12, gap[normal].max()


def test_lagged_covariance_reads_the_table_it_widened(law_i, law_ii):
    # one call at the farthest k + ell widens the table to lags -1..512; every later read inside it is a lookup
    for law in (law_i, law_ii):
        _, spec = spectrum_of(law)
        cov_lagged(spec, _MAX_LAG, _MAX_LAG)
        table = spec._table.cov
        assert (spec._table.lo, spec._table.hi) == (-1, 2 * _MAX_LAG)
        for k, ell in [(1, 0), (-1, _MAX_LAG), (-1, 1), (3, 7), (200, 56), (1, 255), (_MAX_LAG, 3)]:
            cov_lagged(spec, k, ell)
        variance(spec, {-1: 1.0, _MAX_LAG: 1.0})
        predictor_coeffs(spec, _MAX_LAG)
        assert spec._table.cov is table


def test_only_the_table_builder_the_raw_pairing_and_the_total_mass_read_the_moment_matrix():
    # every zeta covariance is a read of the lag table, so no other function walks a moment matrix of its own
    path = pathlib.Path(limits.__file__)
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "_moment_matrix":
                readers.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), ())
    assert sorted(set(readers)) == ["LimitSpectrum.total_mass", "_build_table", "cov_pair"]


def test_predictor_residual_decreases_with_more_lags(gw13):
    _, spec = spectrum_of(gw13)
    residuals = [predictor_coeffs(spec, K).residual_sq for K in range(0, 6)]
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a + 1e-12
    assert residuals[5] < residuals[0]


def test_predictor_zero_lags_gives_naive_rule(gw13):
    _, spec = spectrum_of(gw13)
    rule = predictor_coeffs(spec, 0)
    assert rule.coeffs.size == 0
    assert rule.residual_sq == pytest.approx(rule.target_sq, rel=1e-14)
    assert rule.predict(10.0, []) == pytest.approx(20.0, rel=1e-14)


def test_predictor_refuses_deterministic_law(det_gw):
    _, spec = spectrum_of(det_gw)
    with pytest.raises(RefusalError):
        predictor_coeffs(spec, 2)


def test_predictor_regularizes_rank_deficient_system(law_ii):
    # one atom supports only one independent direction; asking for three lags
    # must flag the ridge rather than blow up
    _, spec = spectrum_of(law_ii)
    rule = predictor_coeffs(spec, 3)
    assert rule.regularized
    assert np.all(np.isfinite(rule.coeffs))
    assert rule.residual_sq <= 1e-6


def test_predictor_predict_applies_rule(law_ii):
    _, spec = spectrum_of(law_ii)
    rule = predictor_coeffs(spec, 1)
    got = rule.predict(100.0, [2.5])
    assert got == pytest.approx(4.0 * 100.0 + 8.0 * 2.5, rel=1e-10)
    with pytest.raises(ValueError):
        rule.predict(100.0, [1.0, 2.0])


def test_predictor_rejects_negative_lag_count(gw13):
    _, spec = spectrum_of(gw13)
    with pytest.raises(ValueError):
        predictor_coeffs(spec, -1)


# ---------------------------------------------------------------- oscillation


def test_profile_alternates_for_negative_real_root(law_iii):
    report = classify(law_iii)
    prof_n = oscillation_profile(report, [0.5], 6, 8)
    prof_next = oscillation_profile(report, [0.5], 7, 8)
    assert prof_n[0] == 0.0
    assert np.allclose(prof_next, -prof_n, atol=1e-14)
    assert np.max(np.abs(prof_n)) > 0.1


def test_profile_conjugate_pair_gives_real_window():
    law = make_law([(1.0, (0, 2, 16))])
    report = classify(law)
    assert report.regime == "III"
    assert len(report.gamma_crit) == 2
    u = 0.3 + 0.2j
    prof = oscillation_profile(report, [u, u.conjugate()], 5, 6)
    assert prof.dtype == float
    assert np.max(np.abs(prof)) > 0.0
    for bad in ([u, 0.1 - 0.2j], [[u, u.conjugate()], [u, 0.1 - 0.2j], [u, u.conjugate()]]):
        with pytest.raises(ValueError, match="conjugate-symmetry"):
            oscillation_profile(report, bad, 5, 6)


def test_profile_real_root_rejects_imaginary_coefficient(law_iii):
    report = classify(law_iii)
    for bad in ([0.5j], [[0.5], [0.5j], [0.3]]):
        with pytest.raises(ValueError, match="must be real"):
            oscillation_profile(report, bad, 6, 8)


def test_profile_wrong_coefficient_count_faults(law_iii):
    report = classify(law_iii)
    for bad in ([0.5, 0.5], np.zeros((3, 2)), np.zeros((3, 0)), 0.5):
        with pytest.raises(ValueError, match="need 1 coefficients"):
            oscillation_profile(report, bad, 6, 8)


@pytest.mark.parametrize("name", ["law_iii", "pair_iii"])
def test_profile_at_time_zero_is_the_eigen_window(name, request):
    """One evaluator of ``zeta_k`` serves both: at ``n = 0`` with unit weight the profile is the eigen window (its real
    part for a conjugate pair, weighted 1/2 each), bit for bit on law_iii's real root and to 1e-15 on the pair."""
    law = make_law([(0.5, (0, 2, 12)), (0.5, (2, 2, 12))]) if name == "pair_iii" else request.getfixturevalue(name)
    report = classify(law)
    crit, trunc = report.gamma_crit, law.max_age + _MAX_LAG
    u, _ = eigen_direction(law, crit[0], report.m, trunc)
    if name == "law_iii":
        assert len(crit) == 1 and u.dtype == float
        assert oscillation_profile(report, [1.0], 0, trunc).tobytes() == u.tobytes()
    else:
        assert len(crit) == 2 and crit[1] == crit[0].conjugate()
        prof = oscillation_profile(report, [0.5, 0.5], 0, trunc)
        assert np.max(np.abs(prof - u.real)) <= 1e-15 * np.max(np.abs(u))


@pytest.mark.parametrize("atoms", [[(0.5, (0, 9)), (0.5, (2, 9))], [(0.5, (0, 2, 12)), (0.5, (2, 2, 12))]])
def test_profile_rows_equal_scalar_calls(atoms):
    """Leading axes index replicates: each row has the bits of a call on that row alone."""
    law = make_law(atoms)
    report = classify(law)
    assert report.regime == "III"
    rng = np.random.default_rng(17)
    crit = report.gamma_crit
    U = np.zeros((2, 5, len(crit)), dtype=complex)
    for p, g in enumerate(crit):  # conjugate roots carry conjugate coefficients
        if g.imag == 0.0:
            U[..., p] = rng.normal(size=(2, 5))
        elif g.imag > 0.0:
            U[..., p] = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
            U[..., crit.index(g.conjugate())] = U[..., p].conjugate()
    trunc = law.max_age + 4
    batch = oscillation_profile(report, U, 20, trunc)
    assert batch.shape == (2, 5, trunc + 1)
    for i in range(2):
        assert oscillation_profile(report, U[i], 20, trunc).tobytes() == batch[i].tobytes()
        for j in range(5):
            assert oscillation_profile(report, U[i, j], 20, trunc).tobytes() == batch[i, j].tobytes()
            assert oscillation_profile(report, U[i, j].tolist(), 20, trunc).tobytes() == batch[i, j].tobytes()


def test_profile_refused_outside_oscillating_regime(gw13, nonsimple_ii):
    for law in (gw13, nonsimple_ii):
        with pytest.raises(RefusalError):
            oscillation_profile(classify(law), [0.5], 6, 8)


def test_profile_refused_for_nonsimple_critical_root(law_iii):
    report = dataclasses.replace(classify(law_iii), non_simple=True)
    with pytest.raises(RefusalError):
        oscillation_profile(report, [0.5], 6, 8)
