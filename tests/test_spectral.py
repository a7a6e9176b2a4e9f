"""Growth factor, root geometry, regime classification, and the operator T."""

from __future__ import annotations

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

import cmjfluct
from cmjfluct import make_law, moments, mu_hat
from cmjfluct.simulate import martingale_qv, run
from cmjfluct.spectral import (
    _backward_error,
    apply_T,
    classify,
    eigen_direction,
    malthusian,
    resolvent_vector,
    vector_v,
)

SQRT2 = math.sqrt(2.0)
SQRT37 = math.sqrt(37.0)


# ------------------------------------------------------------- growth factor


def test_malthusian_exact_values(gw13, law_i, law_ii, law_iii, det_two_age):
    assert malthusian(gw13) == pytest.approx(2.0, rel=1e-14)
    assert malthusian(law_i) == pytest.approx(1.0 + SQRT2, rel=1e-14)
    assert malthusian(law_ii) == pytest.approx(4.0, rel=1e-14)
    assert malthusian(law_iii) == pytest.approx((1.0 + SQRT37) / 2.0, rel=1e-14)
    assert malthusian(det_two_age) == pytest.approx(2.0, rel=1e-14)


def test_malthusian_residual_invariant(gw13, law_i, law_ii, law_iii, nonsimple_ii):
    for law in (gw13, law_i, law_ii, law_iii, nonsimple_ii):
        m = malthusian(law)
        assert abs(mu_hat(law, 1.0 / m) - 1.0) <= 1e-12


def test_growth_factor_solved_once_per_moment_table(law_i):
    # malthusian, classify and martingale_qv all read the table's cached growth factor
    tab = moments(law_i)
    m = malthusian(law_i)
    assert vars(tab)["growth"] == m
    trace = run(law_i, 6, 3)
    qv = martingale_qv(trace, tab, {1: 1.0}, 6)
    vars(tab)["growth"] = 2.5  # a planted value must be what every reader sees
    try:
        assert malthusian(law_i) == 2.5
        with pytest.raises(RuntimeError, match=r"1/m = 0\.4 "):
            classify(law_i)
    finally:
        del vars(tab)["growth"]
    assert malthusian(law_i) == m
    # the orbit is built once per table, at its growth factor: plant it on a fresh table before the first build
    planted = moments(dataclasses.replace(law_i))
    vars(planted)["growth"] = 2.5
    assert martingale_qv(trace, planted, {1: 1.0}, 6) != qv
    assert martingale_qv(trace, tab, {1: 1.0}, 6) == qv


def test_malthusian_faults_on_invalid_laws():
    subcritical = make_law([(0.9, {1: 1}), (0.1, {1: 0, 2: 1})])
    with pytest.raises(ValueError, match="supercriticality"):
        malthusian(subcritical)
    even_span = make_law([(1.0, {2: 3})])
    with pytest.raises(ValueError, match="lattice span"):
        malthusian(even_span)


# ------------------------------------------------------------------ root sets


def test_all_roots_two_age_closed_forms(law_i, law_ii, law_iii):
    r = classify(law_ii).roots
    assert r[0] == pytest.approx(0.25, abs=1e-13)
    assert r[1] == pytest.approx(-0.5, abs=1e-12)

    r = classify(law_i).roots
    assert r[0] == pytest.approx(SQRT2 - 1.0, abs=1e-13)
    assert r[1] == pytest.approx(-1.0 - SQRT2, abs=1e-12)

    r = classify(law_iii).roots
    assert r[0] == pytest.approx((SQRT37 - 1.0) / 18.0, abs=1e-13)
    assert r[1] == pytest.approx(-(SQRT37 + 1.0) / 18.0, abs=1e-13)


def test_root_completeness_random_points():
    rng = np.random.default_rng(3)
    laws = [
        make_law([(0.5, (1,)), (0.5, (3,))]),
        make_law([(0.5, (1, 8)), (0.5, (3, 8))]),
        make_law([(0.3, {2: 1, 5: 2}), (0.7, {1: 2, 3: 1})]),
        make_law([(1.0, (0, 12, 16))]),
    ]
    for law in laws:
        mu = moments(law).mu
        roots = classify(law).roots
        assert len(roots) == law.max_age
        lead = mu[-1]
        z = rng.uniform(-2, 2, size=20) + 1j * rng.uniform(-2, 2, size=20)
        direct = mu_hat(law, z) - 1.0
        from_roots = lead * np.prod([z - g for g in roots], axis=0)
        scale = np.abs(direct) + np.abs(from_roots) + 1.0
        assert np.max(np.abs(direct - from_roots) / scale) <= 1e-8


def test_roots_conjugate_symmetry():
    law = make_law([(0.5, {1: 1, 4: 3}), (0.5, {2: 2, 4: 1})])
    roots = classify(law).roots
    complex_roots = [g for g in roots if g.imag != 0.0]
    assert complex_roots, "expected genuinely complex roots for this law"
    for g in complex_roots:
        assert any(h == g.conjugate() for h in complex_roots)


# -------------------------------------------------------------- classification


def test_classify_gw13_no_secondary_roots(gw13):
    rep = classify(gw13)
    assert rep.regime == "I"
    assert math.isinf(rep.gamma_star)
    assert rep.gamma_crit == ()
    assert rep.m == pytest.approx(2.0, rel=1e-14)
    assert rep.alpha == pytest.approx(math.log(2.0))
    assert not rep.non_simple
    assert not rep.flagged


def test_root_flag_is_relative_backward_error(early_law):
    # K = 80 roots reach |z| ~ 1.04, where mu_hat's terms are large: every polished root
    # passes the relative test, and the same root moved by 1e-6 in any direction fails it
    law = early_law(80)
    rep = classify(law)
    mu = moments(law).mu
    assert rep.flagged == ()
    for z in rep.roots:
        assert _backward_error(mu, z) <= 1e-10
        assert all(_backward_error(mu, z + d) > 1e-10 for d in (1e-6, -1e-6, 1e-6j, -1e-6j))


def test_classify_regime_i(law_i):
    rep = classify(law_i)
    assert rep.regime == "I"
    assert rep.gamma_star == pytest.approx(1.0 + SQRT2, rel=1e-12)
    assert rep.margin == pytest.approx((1.0 + SQRT2) ** 1.5 - 1.0, rel=1e-10)


def test_classify_regime_ii(law_ii):
    rep = classify(law_ii)
    assert rep.regime == "II"
    assert rep.gamma_star == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.margin) <= 1e-9
    assert rep.gamma_crit == (pytest.approx(-0.5, abs=1e-12),)
    assert not rep.non_simple
    # derivative at the critical root: mu_hat'(-1/2) = 2 + 16*(-1/2) = -6
    idx = rep.roots.index(rep.gamma_crit[0])
    assert rep.derivs[idx] == pytest.approx(-6.0, rel=1e-10)


def test_classify_regime_iii(law_iii):
    rep = classify(law_iii)
    assert rep.regime == "III"
    assert rep.gamma_star == pytest.approx((SQRT37 + 1.0) / 18.0, rel=1e-12)
    assert rep.margin < -0.2


def test_classify_nonsimple_critical_root(nonsimple_ii):
    rep = classify(nonsimple_ii)
    assert rep.regime == "II"
    assert rep.non_simple
    assert rep.gamma_star == pytest.approx(0.5, abs=1e-9)
    assert sorted(rep.multiplicities) == [1, 2, 2]
    assert len(rep.gamma_crit) == 1


@pytest.mark.parametrize(
    "births, root, q",
    [
        ((0, 24, 64, 48), -0.5, 3),  # 48 (z - 1/6) (z + 1/2)^3
        ((0, 40, 160, 240, 128), -0.5, 4),  # 128 (z - 1/8) (z + 1/2)^4
        ((0, 60, 320, 720, 768, 320), -0.5, 5),  # 320 (z - 1/10) (z + 1/2)^5
        ((0, 1, 4, 3, 2), complex(-0.5, math.sqrt(3.0) / 2.0), 2),  # 2 (z - 1/2) (z^2 + z + 1)^2
    ],
)
def test_multiple_root_reported_once_per_multiplicity(births, root, q):
    # the located copies of a q-fold root scatter by about eps^(1/q) (3e-6 apart for the triple
    # root); they must come back as one location, repeated q times, not as q nearby simple roots
    rep = classify(make_law([(1.0, births)]))
    for target in {complex(root), complex(root).conjugate()}:
        copies = [i for i, z in enumerate(rep.roots) if abs(z - target) <= 1e-12]
        assert len(copies) == q
        assert len({rep.roots[i] for i in copies}) == 1
        assert all(rep.multiplicities[i] == q for i in copies)
    assert rep.gamma_star == pytest.approx(abs(root), abs=1e-12)
    assert rep.non_simple
    assert rep.flagged == ()


@pytest.mark.parametrize("split", ["real", "complex"])
def test_close_distinct_roots_stay_simple(split):
    # 16 (z - r) ((z + 1/2)^2 -+ d^2), scaled so that mu_hat(0) - 1 = -1: two simple roots 2d = 1e-5 apart
    d = 5e-6
    if split == "real":  # r = 1/4 - d^2 keeps mu_1 = 0
        c = (0.25 - d * d) ** 2
        p, q = (0.75 + d * d) / c - 12.0, 1.0 / c - 16.0
        law = make_law([(1.0 - p - q, (0, 12, 16)), (p, (0, 13, 16)), (q, (0, 12, 17))])
        pair = (-0.5 + d, -0.5 - d)
    else:  # r = 1/4
        s = 1.0 + 4.0 * d * d
        p1, p2, p3 = 16.0 * d * d / s, 48.0 * d * d / s, 64.0 * d * d / s
        law = make_law([(p1, (1, 12, 16)), (p2, (0, 11, 16)), (p3, (0, 12, 15)), (1.0 - p1 - p2 - p3, (0, 12, 16))])
        pair = (complex(-0.5, -d), complex(-0.5, d))
    rep = classify(law)
    assert rep.multiplicities == (1, 1, 1)
    assert rep.roots[1:] == pytest.approx(pair, abs=1e-10)
    assert not rep.non_simple


def test_classify_matches_two_age_sign_criterion():
    # For mean ages (1, 2) the regime is decided by the sign of
    # mu1^3 + 3 mu1 mu2 + mu2 - mu2^2 (positive: I, negative: III, zero: II).
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        t1 = rng.uniform(1.05, 5.0)
        t2 = rng.uniform(0.3, 7.0)
        s = t1**3 + 3 * t1 * t2 + t2 - t2**2
        if abs(s) < 1e-3:
            continue
        k1, k2 = int(t1), int(t2)
        fx, fy = t1 - k1, t2 - k2
        entries = []
        for dx, wx in ((0, 1 - fx), (1, fx)):
            for dy, wy in ((0, 1 - fy), (1, fy)):
                if wx * wy > 0:
                    entries.append((wx * wy, (k1 + dx, k2 + dy)))
        law = make_law(entries)
        tab = moments(law)
        assert tab.mu[1] == pytest.approx(t1) and tab.mu[2] == pytest.approx(t2)
        rep = classify(law)
        assert rep.regime == ("I" if s > 0 else "III"), (t1, t2, s, rep.regime)
        checked += 1


def test_report_text_roundtrip_fields(law_ii):
    text = classify(law_ii).to_text()
    assert "regime = II" in text
    assert "m = 4" in text
    assert "non_simple = false" in text


# ----------------------------------------------------------------- operator T


def test_apply_T_window_fault(law_ii):
    with pytest.raises(ValueError, match="window"):
        apply_T(law_ii, 4.0, np.zeros(2))


def test_apply_T_fixed_point(law_i, law_ii):
    # y*_k = 1 - m^-k is a fixed point: chi(y*) = m - 1 regenerates the tail.
    for law, m in ((law_i, 1.0 + SQRT2), (law_ii, 4.0)):
        k = np.arange(40)
        star = 1.0 - (1.0 / m) ** k
        assert np.allclose(apply_T(law, m, star), star, atol=1e-14)


def test_eigen_direction_values_and_identity(law_ii):
    u, scaled = eigen_direction(law_ii, -0.5, 4.0, trunc=30)
    assert u[0] == 0.0
    assert u[1] == pytest.approx(-0.75)
    assert u[2] == pytest.approx(0.1875)
    assert np.allclose(apply_T(law_ii, 4.0, u), u / (-0.5), atol=1e-12)
    # scale factor gamma (gamma - 1) mu_hat'(gamma) = (-.5)(-1.5)(-6) = -4.5
    assert np.allclose(scaled, u / -4.5, atol=1e-15)


def test_eigen_direction_complex_root():
    law = make_law([(0.5, {1: 1, 4: 3}), (0.5, {2: 2, 4: 1})])
    rep = classify(law)
    m = rep.m
    complex_roots = [g for g in rep.roots if g.imag > 0]
    assert complex_roots
    g = complex_roots[0]
    u, _ = eigen_direction(law, g, m, trunc=rep.roots and 3 * law.max_age + 10)
    out = apply_T(law, m, u)
    assert np.max(np.abs(out - u / g)) <= 1e-10 * max(1.0, float(np.max(np.abs(u))))


def test_eigen_direction_faults(law_ii, nonsimple_ii):
    with pytest.raises(ValueError, match="not a root"):
        eigen_direction(law_ii, 0.3, 4.0, trunc=10)
    with pytest.raises(ValueError, match="1/m"):
        eigen_direction(law_ii, 0.25, 4.0, trunc=10)
    with pytest.raises(ValueError, match="multiple root"):
        eigen_direction(nonsimple_ii, -0.5, 4.0, trunc=10)


def test_resolvent_oracle_gw13(gw13):
    # lam = 4: f_k = -(2/3)(4^-k - 2^-k); f_1 = 1/6.
    f = resolvent_vector(4.0, gw13, 2.0, trunc=12)
    assert f[0] == pytest.approx(0.0, abs=1e-15)
    assert f[1] == pytest.approx(1.0 / 6.0, rel=1e-14)
    k = np.arange(13)
    assert np.allclose(f, -(2.0 / 3.0) * (4.0 ** (-k.astype(float)) - 2.0 ** (-k.astype(float))), atol=1e-14)


def test_resolvent_identity_random_lambdas(gw13, law_i, law_ii, law_iii):
    rng = np.random.default_rng(5)
    cases = [(gw13, 2.0), (law_i, 1.0 + SQRT2), (law_ii, 4.0), (law_iii, (1.0 + SQRT37) / 2.0)]
    for law, m in cases:
        count = 0
        trunc = law.max_age + 40
        v = vector_v(m, trunc)
        while count < 10:
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(lam) < 0.4 or abs(lam - 1.0) < 1e-3:
                continue
            if abs(mu_hat(law, 1.0 / lam) - 1.0) <= 1e-2:
                continue
            f = resolvent_vector(lam, law, m, trunc)
            resid = lam * f - apply_T(law, m, f) - v
            scale = max(1.0, float(np.max(np.abs(f))))
            assert np.max(np.abs(resid)) <= 1e-10 * scale
            count += 1


def test_resolvent_fault_message_prints_plain_floats(gw13):
    with pytest.raises(ValueError, match="too close to a root") as err:
        resolvent_vector(2.0, gw13, 2.0, trunc=10)
    assert "np." not in str(err.value)


def test_resolvent_faults(gw13):
    with pytest.raises(ValueError, match="too close to a root"):
        resolvent_vector(2.0, gw13, 2.0, trunc=10)  # 1/lam = 0.5 is the root
    with pytest.raises(ValueError, match="pole"):
        resolvent_vector(1.0, gw13, 2.0, trunc=10)
    with pytest.raises(ValueError, match="^lam = 0 is not in the resolvent set$"):
        resolvent_vector(0, gw13, 2.0, trunc=10)


# -------------------------------------------------------------- power growth


def _norm_ratios(law, m, y, n):
    """Per-step l2 norm ratios ``||T^(j+1) y|| / ||T^j y||`` for ``j < n``; the window must cover ``0..K + n``."""
    norms = [float(np.linalg.norm(y))]
    for _ in range(n):
        y = apply_T(law, m, y)
        norms.append(float(np.linalg.norm(y)))
    return np.array(norms[1:]) / np.array(norms[:-1])


def test_power_growth_eigendirection_exact_rate(law_i):
    m = 1.0 + SQRT2
    gamma = -(1.0 + SQRT2)
    n = 30
    u, _ = eigen_direction(law_i, gamma, m, trunc=law_i.max_age + n)
    ratios = _norm_ratios(law_i, m, u, n)
    assert np.allclose(ratios, 1.0 / abs(gamma), atol=1e-9)


def test_power_growth_from_v_saturates_at_dominant_rate(law_i, law_iii):
    # Starting from v the iterates pick up the fixed-point component, so the
    # observed rate is max(1, 1/gamma_star), not 1/gamma_star itself.
    # The window norm of T^n v grows like sqrt(n) (one more component saturates
    # per step), so the ratio approaches 1 from above at rate 1/(2n).
    n = 40
    m = 1.0 + SQRT2
    ratios = _norm_ratios(law_i, m, vector_v(m, law_i.max_age + n), n)
    assert 1.0 < ratios[-1] < 1.0 + 1.0 / n

    m3 = (1.0 + SQRT37) / 2.0
    inv_gamma = 18.0 / (SQRT37 + 1.0)
    ratios = _norm_ratios(law_iii, m3, vector_v(m3, law_iii.max_age + n), n)
    assert ratios[-1] == pytest.approx(inv_gamma, rel=1e-3)


# ------------------------------------------------------------- range rule


def test_only_the_range_helper_and_the_cli_compare_with_the_lag_bound():
    # every other module checks a lag, order, window or time index through spectral._require_in, so the size policy
    # is written once; cli.py keeps its own usage errors (exit 1)
    restated = []
    for path in sorted(pathlib.Path(cmjfluct.__file__).parent.glob("*.py")):
        if path.name in ("spectral.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(name, ast.Name) and name.id == "_MAX_LAG"
                for operand in (node.left, *node.comparators)
                for name in ast.walk(operand)
            ):
                restated.append(f"{path.name}:{node.lineno}")
    assert restated == []
