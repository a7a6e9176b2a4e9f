"""Root geometry of the mean-litter transform and regime classification.

The growth factor ``m`` solves ``mu_hat(1/m) = 1``.  The remaining roots of
``mu_hat(z) = 1`` control the second-order behaviour of the prediction errors
``Z_{n-k} - m^-k Z_n``: with ``gamma_*`` the smallest modulus among roots
other than ``1/m`` (infinite when there are none), the process sits in

* regime I   if ``gamma_* sqrt(m) > 1``  (Gaussian limits at scale sqrt(Z_n)),
* regime II  if ``gamma_* sqrt(m) = 1``  (Gaussian limits at scale sqrt(n Z_n)),
* regime III if ``gamma_* sqrt(m) < 1``  (oscillations of order gamma_*^-n, no limit).

The module also implements the shift-plus-rank-one operator

    (T y)_0 = 0,   (T y)_k = y_{k-1} + chi(y) m^-k  (k >= 1),
    chi(y)  = sum_{k=1}^K mu_k (y_k - y_{k-1}),

whose iterates reconstruct the prediction errors from the reproduction
innovations.  Sequence windows are plain 1-D arrays indexed by age ``k``;
a window of length ``trunc + 1`` covers components ``0..trunc``, and the
iteration is exact on the window because ``(T y)_k`` only reads components
below ``k`` (and ``1..K``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringLaw, _poly_deriv, _polyval, _require_admissible, moments

__all__ = [
    "SpectralReport",
    "malthusian",
    "all_roots",
    "classify",
    "apply_T",
    "vector_v",
    "eigen_direction",
    "resolvent_vector",
    "power_growth",
]

#: Two located roots closer than this (relative) are treated as one multiple root.
_CLUSTER_TOL = 1e-6
#: A polished root whose backward error (see :func:`_backward_error`) stays above this is flagged.
_RESIDUAL_FLAG = 1e-10
#: Relative width of the regime-II boundary: a law is critical when ``|gamma_star sqrt(m) - 1|`` is at most this.
_REGIME_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Root geometry and regime classification of an offspring law.

    ``roots`` lists all K roots of ``mu_hat(z) = 1`` (a multiple root appears
    once per multiplicity, at the same polished location); ``residuals`` and
    ``derivs`` align with it.  ``gamma_star`` is the smallest root modulus
    after removing one instance of ``1/m`` (``inf`` when no other roots
    exist) and ``gamma_crit`` the distinct roots achieving it.  ``margin`` is
    ``gamma_star * sqrt(m) - 1``, the signed distance to the regime boundary.
    ``non_simple`` marks a multiple critical root; ``flagged`` holds indices
    of roots whose relative backward error stays above 1e-10 after polishing
    (``residuals`` stay absolute).
    """

    m: float
    alpha: float
    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    multiplicities: tuple[int, ...]
    derivs: tuple[complex, ...]
    gamma_star: float
    gamma_crit: tuple[complex, ...]
    regime: str
    margin: float
    non_simple: bool
    flagged: tuple[int, ...]

    def to_text(self) -> str:
        lines = [
            f"m = {self.m:.17g}",
            f"alpha = {self.alpha:.17g}",
            f"regime = {self.regime}",
            f"gamma_star = {self.gamma_star:.17g}",
            f"margin = {self.margin:.17g}",
            f"non_simple = {str(self.non_simple).lower()}",
            f"n_roots = {len(self.roots)}",
            f"critical_roots = {'; '.join(format(g, '.17g') for g in self.gamma_crit)}",
        ]
        if self.flagged:
            lines.append(f"flagged_roots = {', '.join(str(i) for i in self.flagged)}")
        return "\n".join(lines) + "\n"


def malthusian(law: OffspringLaw) -> float:
    """Growth factor ``m > 1`` solving ``mu_hat(1/m) = 1``.

    Brackets the root of the strictly increasing map ``x -> mu_hat(x)`` on
    ``[1/E[N], 1]``, bisects, and finishes with Newton iterations; the result
    satisfies ``|mu_hat(1/m) - 1| <= 1e-12``.  Faults if the law violates the
    standing assumptions (see :func:`validate_law`).
    """
    _require_admissible(law)
    return moments(law).growth


def _newton_polish(coeffs_f: np.ndarray, z: complex, max_iter: int = 100) -> complex:
    """Newton-polish a simple root of the polynomial with coefficients ``coeffs_f``."""
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


def _root_analysis(law: OffspringLaw, m: float):
    """Locate, polish, and canonicalize all K roots of ``mu_hat(z) = 1``, given the growth factor ``m``.

    Returns ``(roots, residuals, multiplicities)`` with conjugate pairs made
    exact, multiple roots collapsed to a shared location (polished on the
    appropriate derivative, where they are simple), and the root nearest
    ``1/m`` replaced by the bisection-grade value.
    """
    mu = moments(law).mu
    k_max = law.max_age
    coeffs_f = mu.astype(float).copy()  # f(z) = mu_hat(z) - 1, ascending powers
    coeffs_f[0] = -1.0
    located = [complex(z) for z in np.roots(coeffs_f[::-1])]
    polished = [_newton_polish(coeffs_f, z) for z in located]

    # Drop spurious imaginary dust, then enforce exact conjugate symmetry.
    cleaned: list[complex] = []
    for z in polished:
        if abs(z.imag) <= 1e-10 * max(1.0, abs(z)):
            z = complex(z.real, 0.0)
        cleaned.append(z)
    with_im = [z for z in cleaned if z.imag != 0.0]
    with_im.sort(key=lambda z: (z.real, abs(z.imag), z.imag))
    paired: list[complex] = [z for z in cleaned if z.imag == 0.0]
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

    # Cluster near-coincident locations into multiple roots.
    order = sorted(range(len(paired)), key=lambda i: (paired[i].real, paired[i].imag))
    clusters: list[list[complex]] = []
    for idx in order:
        z = paired[idx]
        if clusters and abs(z - clusters[-1][-1]) <= _CLUSTER_TOL * max(1.0, abs(z)):
            clusters[-1].append(z)
        else:
            clusters.append([z])

    roots: list[complex] = []
    mults: list[int] = []
    for cluster in clusters:
        q = len(cluster)
        center = sum(cluster) / q
        if q >= 2:
            # A q-fold root of f is a simple root of f^(q-1): polish there.
            center = _newton_polish(_poly_deriv(coeffs_f, q - 1), center)
            if abs(center.imag) <= 1e-10 * max(1.0, abs(center)):
                center = complex(center.real, 0.0)
        for _ in range(q):
            roots.append(center)
            mults.append(q)

    # The root at 1/m is known to bisection accuracy: substitute it.
    inv_m = 1.0 / m
    nearest = min(range(len(roots)), key=lambda i: abs(roots[i] - inv_m))
    if abs(roots[nearest] - inv_m) <= 1e-6 and mults[nearest] == 1:
        roots[nearest] = complex(inv_m, 0.0)

    keyed = sorted(range(len(roots)), key=lambda i: (round(abs(roots[i]), 12), cmath.phase(roots[i])))
    roots = [roots[i] for i in keyed]
    mults = [mults[i] for i in keyed]
    residuals = [abs(_polyval(coeffs_f, z)) for z in roots]
    if len(roots) != k_max:
        raise RuntimeError(f"expected {k_max} roots, found {len(roots)}")
    return roots, residuals, mults


def _backward_error(mu: np.ndarray, z):
    """``|1 - mu_hat(z)| / (1 + sum_k mu_k |z|^k)``, the residual relative to the terms it cancels; shaped like ``z``."""
    return abs(1.0 - _polyval(mu, z)) / (1.0 + _polyval(mu, abs(z)))


def all_roots(law: OffspringLaw) -> list[complex]:
    """All K roots of ``mu_hat(z) = 1``, polished and canonically ordered.

    Multiple roots repeat according to multiplicity.  A root whose residual
    cannot be driven below 1e-10 is still returned (see
    :class:`SpectralReport` for the flag).
    """
    roots, _, _ = _root_analysis(law, malthusian(law))
    return roots


def classify(law: OffspringLaw) -> SpectralReport:
    """Classify the fluctuation regime from the root geometry.

    The law is declared critical (regime II) when
    ``|gamma_star * sqrt(m) - 1| <= _REGIME_TOL``.
    """
    m = malthusian(law)
    roots, residuals, mults = _root_analysis(law, m)
    mu = moments(law).mu
    dmu = _poly_deriv(mu)
    derivs = [_polyval(dmu, z) for z in roots]

    inv_m = 1.0 / m
    anchor = min(range(len(roots)), key=lambda i: abs(roots[i] - inv_m))
    if abs(roots[anchor] - inv_m) > 1e-9 * max(1.0, inv_m):
        raise RuntimeError(f"1/m = {inv_m!r} is not among the polished roots")
    others = [i for i in range(len(roots)) if i != anchor]

    if not others:
        gamma_star = math.inf
        gamma_crit: tuple[complex, ...] = ()
        non_simple = False
    else:
        gamma_star = min(abs(roots[i]) for i in others)
        if gamma_star <= inv_m * (1.0 + 1e-12):
            raise RuntimeError(f"minimal secondary root modulus {gamma_star!r} does not exceed 1/m")
        crit_idx = [i for i in others if abs(roots[i]) <= gamma_star * (1.0 + _REGIME_TOL)]
        seen: list[complex] = []
        for i in crit_idx:
            if all(roots[i] != s for s in seen):
                seen.append(roots[i])
        gamma_crit = tuple(seen)
        non_simple = any(mults[i] >= 2 or abs(derivs[i]) <= 1e-8 for i in crit_idx)

    scaled = gamma_star * math.sqrt(m)
    margin = scaled - 1.0
    if math.isinf(scaled) or margin > _REGIME_TOL:
        regime = "I"
    elif margin < -_REGIME_TOL:
        regime = "III"
    else:
        regime = "II"

    flagged = tuple(np.flatnonzero(_backward_error(mu, np.array(roots)) > _RESIDUAL_FLAG).tolist())
    return SpectralReport(
        m=m,
        alpha=math.log(m),
        roots=tuple(roots),
        residuals=tuple(residuals),
        multiplicities=tuple(mults),
        derivs=tuple(derivs),
        gamma_star=gamma_star,
        gamma_crit=gamma_crit,
        regime=regime,
        margin=margin,
        non_simple=non_simple,
        flagged=flagged,
    )


def vector_v(m: float, trunc: int) -> np.ndarray:
    """The forcing window ``v = (0, m^-1, m^-2, ..., m^-trunc)``."""
    v = (1.0 / m) ** np.arange(trunc + 1)
    v[0] = 0.0
    return v


def apply_T(law: OffspringLaw, m: float, y: np.ndarray) -> np.ndarray:
    """One application of the shift-plus-rank-one operator to a window.

    Faults if the window is shorter than ``K + 1``: the functional ``chi``
    reads components ``0..K``, so shorter windows cannot be iterated exactly.
    """
    return _apply_T_mu(moments(law).mu, m, y)


def _apply_T_mu(mu: np.ndarray, m: float, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    k_max = len(mu) - 1
    if len(y) - 1 < k_max:
        raise ValueError(f"window covers 0..{len(y) - 1}, need at least 0..{k_max}")
    chi = np.sum(mu[1:] * (y[1 : k_max + 1] - y[0:k_max]))
    out = np.empty_like(y)
    out[0] = 0.0
    out[1:] = y[:-1]
    out[1:] += chi * (1.0 / m) ** np.arange(1, len(y))
    return out


def eigen_direction(law: OffspringLaw, gamma: complex, m: float, trunc: int):
    """Eigenvector window of T at eigenvalue ``1/gamma`` for a simple root.

    Returns ``(u, u_scaled)`` with ``u_k = gamma^k - m^-k`` (so ``T u = u / gamma``)
    and ``u_scaled = u / (gamma (gamma - 1) mu_hat'(gamma))``, the coefficient
    vector that pairs with the innovations in the oscillation expansion.

    Faults if ``gamma`` is not a root to 1e-10, coincides with ``1/m``
    (degenerate direction), or is a multiple root (``mu_hat'(gamma) = 0``).
    """
    mu = moments(law).mu
    coeffs_f = mu.astype(float).copy()
    coeffs_f[0] = -1.0
    gamma = complex(gamma)
    resid = abs(_polyval(coeffs_f, gamma))
    if resid > 1e-10:
        raise ValueError(f"gamma = {gamma!r} is not a root: |mu_hat(gamma) - 1| = {resid!r}")
    if abs(gamma - 1.0 / m) <= 1e-12 * max(1.0, 1.0 / m):
        raise ValueError("gamma coincides with 1/m; the direction degenerates to zero")
    deriv = _polyval(_poly_deriv(mu), gamma)
    if abs(deriv) <= 1e-8:
        raise ValueError(f"mu_hat'(gamma) = {deriv!r}: gamma is a multiple root, no simple direction")
    k = np.arange(trunc + 1)
    real_dir = gamma.imag == 0.0
    base = (gamma.real if real_dir else gamma) ** k
    u = base - (1.0 / m) ** k
    scale = gamma * (gamma - 1.0) * deriv
    scaled = u / (scale.real if real_dir and scale.imag == 0.0 else scale)
    return u, scaled


def resolvent_vector(lam: complex, law: OffspringLaw, m: float, trunc: int) -> np.ndarray:
    """Solution window of ``(lam - T) f = v`` for admissible ``lam``.

    ``f_k = (lam^-k - m^-k) / ((1 - lam)(1 - mu_hat(1/lam)))``.  Faults when
    ``1/lam`` is within 1e-8 of a root of ``mu_hat(z) = 1`` (the resolvent
    blows up) or ``lam`` is within 1e-12 of 1.
    """
    lam = complex(lam)
    if lam == 0:
        raise ValueError("lam = 0 is not in the resolvent set")
    mu = moments(law).mu
    mu_at = _polyval(mu.astype(complex), 1.0 / lam)
    if abs(mu_at - 1.0) <= 1e-8:
        raise ValueError(f"1/lam = {1.0 / lam!r} is too close to a root: |mu_hat - 1| = {float(abs(mu_at - 1.0))!r}")
    if abs(lam - 1.0) <= 1e-12:
        raise ValueError("lam = 1 is a pole of the resolvent formula")
    denom = (1.0 - lam) * (1.0 - mu_at)
    k = np.arange(trunc + 1)
    # Integer exponents keep negative real bases well-defined under numpy power.
    real_case = lam.imag == 0.0
    base = (1.0 / lam.real if real_case else 1.0 / lam) ** k
    f = (base - (1.0 / m) ** k) / (denom.real if real_case and denom.imag == 0.0 else denom)
    return f


def power_growth(law: OffspringLaw, m: float, y0: np.ndarray, n: int, radius: float = 1.0) -> np.ndarray:
    """Per-step weighted-norm ratios ``||T^(j+1) y0|| / ||T^j y0||``.

    The norm is the radius-weighted l2 norm ``sqrt(sum_k |y_k|^2 radius^(2k))``
    over the window.  Requires the window to cover ``0..K + n`` so every
    iterate is exact on it.  A zero norm yields a zero ratio.
    """
    y = np.asarray(y0, dtype=float if np.isrealobj(y0) else complex).copy()
    if len(y) - 1 < law.max_age + n:
        raise ValueError(f"window covers 0..{len(y) - 1}, need 0..{law.max_age + n}")
    weights = radius ** (2.0 * np.arange(len(y)))
    norm = lambda w: math.sqrt(float(np.sum(np.abs(w) ** 2 * weights)))
    ratios = np.empty(n)
    prev = norm(y)
    for j in range(n):
        y = apply_T(law, m, y)
        cur = norm(y)
        ratios[j] = cur / prev if prev > 0.0 else 0.0
        prev = cur
    return ratios
