"""Root geometry against a reference copy of the per-root polish-and-pair code it replaced.

``classify`` polishes the roots located on or above the real axis in one
array pass, mirrors those strictly above it, and tests runs of close roots as
multiple roots.  The reference below is the earlier design: one Newton loop
per located root in Python complex arithmetic, a greedy conjugate matcher
that averages each pair, and chained clusters within 1e-6.  On laws whose
roots it resolves, both must report the same regime, multiplicities, flags,
``non_simple`` and critical roots.  Roots may differ in the last bits (numpy
and Python divide complex numbers differently), so they agree to
1e-15 max(1, |z|); conjugate pairs must be exact.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from cmjfluct import make_law, moments
from cmjfluct.offspring import _poly_deriv, _polyval
from cmjfluct.spectral import _REGIME_TOL, _RESIDUAL_FLAG, _backward_error, classify, malthusian

_REFERENCE_CLUSTER_TOL = 1e-6


def _reference_polish(coeffs_f, z, max_iter=100):
    dcoeffs = _poly_deriv(coeffs_f)
    scale = float(np.sum(np.abs(coeffs_f))) * max(1.0, abs(z)) ** (len(coeffs_f) - 1)
    best, best_val = z, abs(_polyval(coeffs_f, z))
    stall = 0
    for _ in range(max_iter):
        dval = _polyval(dcoeffs, z)
        if dval == 0:
            break
        z = z - _polyval(coeffs_f, z) / dval
        val = abs(_polyval(coeffs_f, z))
        if val < best_val:
            best, best_val, stall = z, val, 0
        else:
            stall += 1
        if best_val <= 1e-15 * scale or stall >= 3:
            break
    return best


def _reference_roots(law, m):
    mu = moments(law).mu
    coeffs_f = mu.astype(float).copy()
    coeffs_f[0] = -1.0
    located = [complex(z) for z in np.roots(coeffs_f[::-1])]
    polished = [_reference_polish(coeffs_f, z) for z in located]

    cleaned = []
    for z in polished:
        if abs(z.imag) <= 1e-10 * max(1.0, abs(z)):
            z = complex(z.real, 0.0)
        cleaned.append(z)
    with_im = [z for z in cleaned if z.imag != 0.0]
    with_im.sort(key=lambda z: (z.real, abs(z.imag), z.imag))
    paired = [z for z in cleaned if z.imag == 0.0]
    used = [False] * len(with_im)
    for i, z in enumerate(with_im):
        if used[i]:
            continue
        best_j, best_d = -1, math.inf
        for j in range(i + 1, len(with_im)):
            if used[j]:
                continue
            d = abs(with_im[j] - z.conjugate())
            if d < best_d:
                best_j, best_d = j, d
        if best_j >= 0 and best_d <= 1e-6 * max(1.0, abs(z)):
            used[i] = used[best_j] = True
            w = 0.5 * (z + with_im[best_j].conjugate())
            paired.extend([w, w.conjugate()])
        else:
            used[i] = True
            paired.append(z)

    order = sorted(range(len(paired)), key=lambda i: (paired[i].real, paired[i].imag))
    clusters = []
    for idx in order:
        z = paired[idx]
        if clusters and abs(z - clusters[-1][-1]) <= _REFERENCE_CLUSTER_TOL * max(1.0, abs(z)):
            clusters[-1].append(z)
        else:
            clusters.append([z])

    roots, mults = [], []
    for cluster in clusters:
        q = len(cluster)
        center = sum(cluster) / q
        if q >= 2:
            center = _reference_polish(_poly_deriv(coeffs_f, q - 1), center)
            if abs(center.imag) <= 1e-10 * max(1.0, abs(center)):
                center = complex(center.real, 0.0)
        for _ in range(q):
            roots.append(center)
            mults.append(q)

    inv_m = 1.0 / m
    nearest = min(range(len(roots)), key=lambda i: abs(roots[i] - inv_m))
    if abs(roots[nearest] - inv_m) <= 1e-6 and mults[nearest] == 1:
        roots[nearest] = complex(inv_m, 0.0)

    keyed = sorted(range(len(roots)), key=lambda i: (round(abs(roots[i]), 12), cmath.phase(roots[i])))
    return [roots[i] for i in keyed], [mults[i] for i in keyed]


def _reference_classify(law):
    """``(roots, multiplicities, regime, non_simple, critical roots, flagged)`` from the per-root code."""
    m = malthusian(law)
    roots, mults = _reference_roots(law, m)
    mu = moments(law).mu
    dmu = _poly_deriv(mu)
    derivs = [_polyval(dmu, z) for z in roots]
    inv_m = 1.0 / m
    anchor = min(range(len(roots)), key=lambda i: abs(roots[i] - inv_m))
    others = [i for i in range(len(roots)) if i != anchor]
    gamma_star, crit, non_simple = math.inf, [], False
    if others:
        gamma_star = min(abs(roots[i]) for i in others)
        crit_idx = [i for i in others if abs(roots[i]) <= gamma_star * (1.0 + _REGIME_TOL)]
        for i in crit_idx:
            if all(roots[i] != s for s in crit):
                crit.append(roots[i])
        non_simple = any(mults[i] >= 2 or abs(derivs[i]) <= 1e-8 for i in crit_idx)
    margin = gamma_star * math.sqrt(m) - 1.0
    regime = "I" if math.isinf(margin) or margin > _REGIME_TOL else ("III" if margin < -_REGIME_TOL else "II")
    flagged = tuple(np.flatnonzero(_backward_error(mu, np.array(roots)) > _RESIDUAL_FLAG).tolist())
    return roots, mults, regime, non_simple, crit, flagged


def _dense_law(K, seed):
    """Three atoms bearing 0-3 children at every age up to K (at least one at age 1; atom 0 at age K)."""
    rng = np.random.default_rng([K, seed, 3])
    probs = rng.dirichlet(np.full(3, 2.0))
    atoms = []
    for a in range(3):
        births = rng.integers(0, 4, size=K)
        births[0] = max(births[0], 1)
        if a == 0:
            births[K - 1] = max(births[K - 1], 1)
        atoms.append((float(probs[a]), tuple(int(x) for x in births)))
    return make_law(atoms)


_LAWS = (
    [("early", K, s) for K in (2, 10, 40, 80) for s in (0, 1, 2)]
    + [("dense", K, s) for K in (3, 6, 12, 24) for s in (0, 1)]
    + [("nonsimple_ii", 3, 0)]
)


@pytest.mark.parametrize("kind, K, seed", _LAWS)
def test_array_pipeline_matches_per_root_reference(kind, K, seed, early_law, nonsimple_ii):
    law = nonsimple_ii if kind == "nonsimple_ii" else (early_law if kind == "early" else _dense_law)(K, seed)
    rep = classify(law)
    roots, mults, regime, non_simple, crit, flagged = _reference_classify(law)
    assert rep.regime == regime
    assert rep.multiplicities == tuple(mults)
    assert rep.non_simple == non_simple
    assert rep.flagged == flagged
    assert len(rep.roots) == len(roots) == law.max_age
    for new, old in zip(rep.roots, roots):
        assert abs(new - old) <= 1e-15 * max(1.0, abs(old)), (new, old)
    assert len(rep.gamma_crit) == len(crit)
    for new, old in zip(rep.gamma_crit, crit):
        assert abs(new - old) <= 1e-15 * max(1.0, abs(old)), (new, old)
    # conjugate pairs are exact: the root list is closed under conjugation, value for value
    key = lambda z: (z.real, z.imag)
    assert sorted(rep.roots, key=key) == sorted((z.conjugate() for z in rep.roots), key=key)
