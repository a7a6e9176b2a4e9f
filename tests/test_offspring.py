"""Offspring-law construction, validation, moments, and transforms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cmjfluct import (
    law_fingerprint,
    make_law,
    moments,
    mu_hat,
    mu_hat_prime,
    sigma_hat,
    validate_law,
)
from cmjfluct.limits import build_spectrum, char_variance_full
from cmjfluct.offspring import _polyval, _sigma_form
from cmjfluct.spectral import classify


# ---------------------------------------------------------------- construction


def test_make_law_normalizes_dict_and_sequence_births():
    a = make_law([(0.5, {1: 1, 3: 2}), (0.5, (2,))])
    assert a.max_age == 3
    assert a.atoms[0].births == (0, 1, 0, 2)
    assert a.atoms[1].births == (0, 2, 0, 0)


def test_make_law_structural_faults():
    with pytest.raises(ValueError, match="sum"):
        make_law([(0.5, (1,)), (0.4, (2,))])
    with pytest.raises(ValueError, match="age"):
        make_law([(1.0, {0: 2})])
    with pytest.raises(ValueError, match="non-negative integer"):
        make_law([(1.0, {1: -2})])
    with pytest.raises(ValueError, match="non-negative integer"):
        make_law([(1.0, {1: 1.5})])
    with pytest.raises(ValueError, match="probability"):
        make_law([(0.0, (1,)), (1.0, (2,))])
    with pytest.raises(ValueError, match="no births"):
        make_law([(1.0, {2: 0})])
    with pytest.raises(ValueError, match="some atoms"):
        make_law([(0.5, (1,), (1.0,)), (0.5, (3,))])
    with pytest.raises(ValueError, match="length"):
        make_law([(0.5, (1,), (1.0,)), (0.5, (3,), (1.0, 2.0))])
    with pytest.raises(ValueError, match=r"atoms\[1\]: birth count at age 2 is too large"):
        make_law([(0.5, (1,)), (0.5, (3, 10**400))])
    with pytest.raises(ValueError, match=r"atoms\[0\]: characteristic needs a score at age 0"):
        make_law([(0.5, (1,), ()), (0.5, (3,), ())])
    with pytest.raises(ValueError, match=r"^atoms\[0\]: expected \(prob, births\[, char\]\), got 4 fields$"):
        make_law([(1.0, (2,), (1.0,), 0)])
    with pytest.raises(ValueError, match=r"^atoms\[0\]: characteristic values must be finite$"):
        make_law([(1.0, (2,), (math.nan,))])
    with pytest.raises(ValueError, match="^law needs at least one atom$"):
        make_law([])


def test_validate_law_flags_assumption_violations():
    subcritical = make_law([(0.9, {1: 1}), (0.1, {1: 0, 2: 1})])
    probs = validate_law(subcritical)
    assert any("supercriticality" in p for p in probs)

    childless_atom = make_law([(0.5, {1: 3}), (0.5, {1: 0})])
    probs = validate_law(childless_atom)
    assert any("survival" in p for p in probs)

    even_lattice = make_law([(1.0, {2: 3})])
    probs = validate_law(even_lattice)
    assert any("lattice span" in p for p in probs)


def test_validate_law_accepts_examples(gw13, law_i, law_ii, law_iii, det_gw):
    for law in (gw13, law_i, law_ii, law_iii, det_gw):
        assert validate_law(law) == []


# -------------------------------------------------------------------- moments


def test_moments_gw13(gw13):
    tab = moments(gw13)
    assert tab.mu.tolist() == [0.0, 2.0]
    assert tab.sigma[1, 1] == pytest.approx(1.0, abs=1e-15)
    assert gw13.mean_total == pytest.approx(2.0)


def test_moments_law_ii(law_ii):
    tab = moments(law_ii)
    assert tab.mu.tolist() == [0.0, 2.0, 8.0]
    expected_sigma = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 0]], dtype=float)
    assert np.allclose(tab.sigma, expected_sigma, atol=1e-14)


def test_moments_law_i(law_i):
    tab = moments(law_i)
    assert tab.mu.tolist() == [0.0, 2.0, 1.0]
    assert tab.sigma[1, 1] == pytest.approx(1.0)
    assert tab.sigma[1, 2] == pytest.approx(0.0, abs=1e-15)
    assert tab.sigma[2, 2] == pytest.approx(0.0, abs=1e-15)


def test_repeated_litters_have_an_exactly_zero_covariance():
    # the probabilities sum to 1 - 1.1e-16, which the form E N N^T - mu mu^T would leave in sigma as a variance
    law = make_law([(0.12598327537554543, (1, 1)), (0.8740167246244545, (1, 1))])
    assert not np.any(moments(law).sigma)


def test_moment_table_built_once_and_read_only(gw13_coin):
    tab = moments(gw13_coin)
    assert moments(gw13_coin) is tab
    for arr in (tab.mu, tab.sigma, tab.lambda_phi, tab.var_phi, tab.gamma_phi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_moments_invariant_under_atom_permutation_and_splitting(law_ii):
    base = moments(law_ii)
    permuted = make_law([(0.5, (3, 8)), (0.5, (1, 8))])
    split = make_law([(0.25, (1, 8)), (0.5, (3, 8)), (0.25, (1, 8))])
    for other in (permuted, split):
        tab = moments(other)
        assert np.allclose(tab.mu, base.mu, atol=1e-15)
        assert np.allclose(tab.sigma, base.sigma, atol=1e-14)


# ----------------------------------------------------------------- transforms


def test_mu_hat_values_and_derivative(gw13, law_ii):
    assert mu_hat(gw13, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert mu_hat(law_ii, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert mu_hat(law_ii, -0.5) == pytest.approx(1.0, abs=1e-15)
    # mu_hat'(z) = 2 + 16 z for mu = (2, 8)
    assert mu_hat_prime(law_ii, -0.5) == pytest.approx(-6.0)
    zs = np.array([0.1, 0.2 + 0.3j])
    assert np.allclose(mu_hat(law_ii, zs), 2 * zs + 8 * zs**2)


def test_mu_hat_strictly_increasing_on_positive_axis(law_i, law_iii):
    rng = np.random.default_rng(7)
    for law in (law_i, law_iii):
        pts = np.sort(rng.uniform(0.0, 2.0, size=64))
        vals = mu_hat(law, pts)
        assert np.all(np.diff(vals) > 0)


def _sigma_by_einsum(sigma, z):
    """Reference conjugate-bilinear form through the (M, K+1) power matrix (complex; imaginary part is roundoff)."""
    powers = z[:, None] ** np.arange(sigma.shape[0])
    return np.einsum("ni,ij,nj->n", powers, sigma, np.conj(powers))


def _xi_hat(atom, z):
    """Litter transform of a single atom, ``Xi_a(z) = sum_k births_a[k] z^k``."""
    return _polyval(np.asarray(atom.births, dtype=float), np.asarray(z))


def _sigma_by_atoms(law, z):
    """Reference defining sum over atoms, ``sum_a p_a |Xi_a(z) - mu_hat(z)|^2``."""
    mean = mu_hat(law, z)
    return sum(a.prob * np.abs(_xi_hat(a, z) - mean) ** 2 for a in law.atoms)


def test_sigma_hat_matches_covariance_form_on_random_points(law_i, law_ii, gw13_coin):
    rng = np.random.default_rng(11)
    for law in (law_i, law_ii, gw13_coin):
        tab = moments(law)
        r = np.sqrt(rng.uniform(0.0, 1.0, size=1000))
        theta = rng.uniform(0.0, 2 * np.pi, size=1000)
        z = r * np.exp(1j * theta)
        quad = _sigma_by_einsum(tab.sigma, z)
        direct = sigma_hat(law, z)
        assert np.max(np.abs(direct - quad.real)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(quad.imag)) <= 1e-12
        assert np.all(direct >= 0.0)


def test_sigma_hat_matches_per_atom_definition(law_i, law_ii, gw13_coin):
    # the defining sum over atoms is an oracle independent of the covariance form
    three_age = make_law([(0.2, (1, 0, 2)), (0.5, (2, 1, 0)), (0.3, (0, 3, 1))])
    rng = np.random.default_rng(13)
    for law in (law_i, law_ii, gw13_coin, three_age):
        r = np.sqrt(rng.uniform(0.0, 1.0, size=1000))
        z = r * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=1000))
        by_atom = _sigma_by_atoms(law, z)
        assert sigma_hat(law, z) == pytest.approx(by_atom, rel=1e-12, abs=0.0)
        assert sigma_hat(law, complex(z[0])) == pytest.approx(float(by_atom[0]), rel=1e-12, abs=0.0)


def test_folded_sigma_matches_references_on_circles_and_critical_roots(early_law, law_ii, degenerate_ii):
    # the fold at one radius (circle spectra) and at each point's own |z|^2 (atoms,
    # sigma_hat) against the power-matrix form and the per-atom definition
    circle = np.exp(2j * np.pi * np.arange(1024) / 1024)
    for law in [early_law(K) for K in (2, 10, 40, 80)] + [law_ii, degenerate_ii]:
        report = classify(law)
        sigma = moments(law).sigma
        radius = report.m**-0.5
        z = radius * circle
        by_atoms = _sigma_by_atoms(law, z)
        tol = 1e-13 * by_atoms.max()
        on_circle = _sigma_form(sigma, z, radius**2)
        assert np.max(np.abs(on_circle - _sigma_by_einsum(sigma, z).real)) <= tol
        assert np.max(np.abs(on_circle - by_atoms)) <= tol
        assert np.max(np.abs(_sigma_form(sigma, z, np.abs(z) ** 2) - by_atoms)) <= tol
        if report.regime == "II":
            crit = np.array(report.gamma_crit, dtype=complex)
            at_roots = _sigma_form(sigma, crit, np.abs(crit) ** 2)
            assert np.max(np.abs(at_roots - _sigma_by_atoms(law, crit))) <= tol
            if law is degenerate_ii:
                assert at_roots.tolist() == [0.0]
        else:
            assert report.regime == "I"
        for rho in (radius**2, np.abs(z) ** 2):
            with pytest.raises(ValueError, match="Sigma") as exc:
                _sigma_form(-sigma, z, rho)
            assert "np.float64" not in str(exc.value)


def test_sigma_hat_zero_for_deterministic_law(det_gw):
    z = np.array([0.5, -0.5, 0.3 + 0.2j])
    assert np.allclose(sigma_hat(det_gw, z), 0.0, atol=1e-15)


# ------------------------------------------------------------- characteristics


def test_char_moments_coin(gw13_coin):
    cm = moments(gw13_coin)
    assert cm.lambda_phi.tolist() == [0.0]
    assert cm.var_phi.tolist() == [1.0]
    assert np.allclose(cm.gamma_phi, 0.0, atol=1e-15)
    assert cm.delta_lambda.tolist() == [0.0, 0.0]


def test_char_moments_deaths(gw13_deaths):
    # phi = (1, 1) then 0: increments (1, 0, -1)
    cm = moments(gw13_deaths)
    assert cm.lambda_phi.tolist() == [1.0, 1.0]
    assert cm.delta_lambda.tolist() == [1.0, 0.0, -1.0]
    assert np.allclose(cm.var_phi, 0.0, atol=1e-15)


def test_char_moments_constant_extends(gw13_alive):
    cm = moments(gw13_alive)
    assert cm.delta_lambda.tolist() == [1.0, 0.0]
    assert not cm.delta_lambda.flags.writeable


def test_char_moments_requires_char(gw13):
    assert moments(gw13).delta_lambda is None
    report = classify(gw13)
    with pytest.raises(ValueError, match="law has no characteristic"):
        char_variance_full(gw13, report, build_spectrum(report, moments(gw13)))


def test_char_cross_covariance(law_ii):
    # Score the litter size itself: phi(0) = N_1 makes gamma_phi[0, 1] = Var N_1.
    law = make_law([(0.5, (1, 8), (1.0,)), (0.5, (3, 8), (3.0,))])
    tab = moments(law)
    assert tab.gamma_phi[0, 1] == pytest.approx(1.0)
    assert tab.gamma_phi[0, 2] == pytest.approx(0.0, abs=1e-15)


# -------------------------------------------------------------------- hashing


def test_fingerprint_stable_and_sensitive(gw13):
    same = make_law([(0.5, (1,)), (0.5, (3,))])
    other = make_law([(0.5, (1,)), (0.5, {1: 4})])
    assert law_fingerprint(gw13) == law_fingerprint(same)
    assert law_fingerprint(gw13) != law_fingerprint(other)
    assert len(law_fingerprint(gw13)) == 64


def test_math_isfinite_guard():
    with pytest.raises(ValueError):
        make_law([(math.nan, (1,))])
