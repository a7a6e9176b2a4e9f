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

import math
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringLaw, _poly_deriv, _polyval, _require_admissible, moments

__all__ = [
    "SpectralReport",
    "malthusian",
    "classify",
    "apply_T",
    "vector_v",
    "eigen_direction",
    "resolvent_vector",
]

#: Located roots whose sorted gaps are all within this (relative) are tested as one multiple root.
_CLUSTER_TOL = 1e-3
#: A tested cluster is one multiple root when the lower derivatives vanish at its centre to this (relative).
_MULTIPLE_TOL = 1e-13
#: A polished root whose backward error (see :func:`_backward_error`) stays above this is flagged.
_RESIDUAL_FLAG = 1e-10
#: Most Newton steps :func:`_newton_polish` takes.
_NEWTON_STEPS = 100
#: Relative width of the regime-II boundary: a law is critical when ``|gamma_star sqrt(m) - 1|`` is at most this.
_REGIME_TOL = 1e-9
#: Largest lag a window statistic takes: the epoch-series functions cost O(lag^3) and their windows grow with it.
#: The CLI refuses lags and predictor orders beyond it too.
_MAX_LAG = 256


def _require_in(name: str, value, lo, hi) -> None:
    """Refuse (``ValueError`` naming ``name``) a lag, order, window or time index outside ``[lo, hi]``: a lag lies in
    ``[-_MAX_LAG, _MAX_LAG]``, or ``[0, _MAX_LAG]`` with one sign, and within the horizon where it reads counts; a time
    index lies in ``[0, horizon]``; a window ``0..trunc`` ends at most ``_MAX_LAG`` past the law's oldest age ``K``."""
    if not lo <= value <= hi:
        raise ValueError(f"{name} = {value} is outside [{lo}, {hi}]")


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


def _newton_polish(coeffs_f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Newton-polish simple roots ``z`` (an array) of the polynomial with coefficients ``coeffs_f``.

    All roots step together and each keeps its best iterate.  Stepping ends once every
    root's best residual is within 1e-15 of the coefficient scale at its start, or after
    three steps in which no root improved, or after ``_NEWTON_STEPS`` steps.
    """
    done_at = 1e-15 * float(np.abs(coeffs_f).sum()) * np.maximum(1.0, np.abs(z)) ** (len(coeffs_f) - 1)
    coeffs_f, dcoeffs = coeffs_f.tolist(), _poly_deriv(coeffs_f).tolist()  # Python floats: cheaper Horner steps
    fz = _polyval(coeffs_f, z)
    best, best_val, stall = z.copy(), np.abs(fz), 0
    with np.errstate(all="ignore"):  # a zero derivative sends its iterate to inf or nan, which never improves
        for _ in range(_NEWTON_STEPS):
            z = z - fz / _polyval(dcoeffs, z)
            fz = _polyval(coeffs_f, z)
            val = np.abs(fz)
            better = val < best_val
            np.copyto(best, z, where=better)
            np.copyto(best_val, val, where=better)
            stall = 0 if better.any() else stall + 1
            if stall >= 3 or (best_val <= done_at).all():
                break
    return best


def _multiple_root(coeffs_f: np.ndarray, cluster: np.ndarray):
    """The q-fold root that the ``q`` located roots ``cluster`` approximate, or ``None`` when they are distinct.

    A q-fold root of f is a simple root of f^(q-1), so the centroid is polished there.  The
    cluster is one root when f, ..., f^(q-2) also vanish at the result, each to
    ``_MULTIPLE_TOL`` of the terms it sums.
    """
    q = len(cluster)
    centre = _newton_polish(_poly_deriv(coeffs_f, q - 1), cluster.mean(keepdims=True))
    for j in range(q - 1):
        deriv = _poly_deriv(coeffs_f, j)
        if abs(_polyval(deriv, centre)) > _MULTIPLE_TOL * _polyval(np.abs(deriv), abs(centre)):
            return None
    return centre


def _root_analysis(law: OffspringLaw, m: float) -> tuple[np.ndarray, np.ndarray]:
    """Locate, polish, and canonicalize all K roots of ``mu_hat(z) = 1``, given the growth factor ``m``.

    Returns ``(roots, multiplicities)`` as arrays.  LAPACK returns the complex eigenvalues
    of the real companion matrix as exact conjugate pairs, so only the roots located on or
    above the real axis are polished and clustered, and those located strictly above it
    are mirrored at the end.  A run of sorted roots whose gaps stay within
    ``_CLUSTER_TOL`` (with the mirror images of its members when it reaches the real
    axis) becomes one multiple root when :func:`_multiple_root` confirms it.  The root
    nearest ``1/m`` is replaced by the bisection-grade value; faults unless it is simple
    and within 1e-6.
    """
    coeffs_f = moments(law).mu.astype(float)  # f(z) = mu_hat(z) - 1, ascending powers
    coeffs_f[0] = -1.0
    companion = np.eye(len(coeffs_f) - 1, k=-1)  # what np.roots builds, without its input checks
    companion[0] = -coeffs_f[-2::-1] / coeffs_f[-1]
    located = np.linalg.eigvals(companion).astype(complex)
    located = located[located.imag >= 0.0]
    located = located[np.lexsort((located.imag, located.real))]
    mirrored = located.imag > 0.0
    upper = _newton_polish(coeffs_f, located)

    scale = _CLUSTER_TOL * np.maximum(1.0, np.abs(upper))
    apart = np.abs(upper[1:] - upper[:-1]) > scale[1:]
    axial = 2.0 * np.abs(upper.imag) <= scale
    mults = np.ones(len(upper), dtype=int)
    if not apart.all() or (axial & mirrored).any():
        for run in np.split(np.arange(len(upper)), np.flatnonzero(apart) + 1):
            cluster = upper[run]
            if axial[run].any():
                cluster = np.concatenate((cluster, cluster[mirrored[run]].conj()))
            if len(cluster) > 1 and (centre := _multiple_root(coeffs_f, cluster)) is not None:
                upper[run], mults[run] = centre, len(cluster)
    # Imaginary dust within 1e-10 (relative) of the real axis is dropped: real roots carry imaginary part +0.0.
    roots = np.concatenate((upper, upper[mirrored].conj()))
    roots = np.where(np.abs(roots.imag) <= 1e-10 * np.maximum(1.0, np.abs(roots)), roots.real + 0j, roots)
    mults = np.concatenate((mults, mults[mirrored]))
    if len(roots) != law.max_age:
        raise RuntimeError(f"expected {law.max_age} roots, found {len(roots)}")

    # The root at 1/m is known to bisection accuracy: substitute it.
    inv_m = 1.0 / m
    anchor = np.abs(roots - inv_m).argmin()
    if abs(roots[anchor] - inv_m) > 1e-6 or mults[anchor] != 1:
        raise RuntimeError(f"1/m = {inv_m!r} is not among the polished roots")
    roots[anchor] = inv_m

    keyed = np.lexsort((np.angle(roots), np.abs(roots).round(12)))
    return roots[keyed], mults[keyed]


def _backward_error(mu: np.ndarray, z):
    """``|1 - mu_hat(z)| / (1 + sum_k mu_k |z|^k)``, the residual relative to the terms it cancels; shaped like ``z``."""
    return abs(1.0 - _polyval(mu, z)) / (1.0 + _polyval(mu, abs(z)))


def classify(law: OffspringLaw) -> SpectralReport:
    """Classify the fluctuation regime from the root geometry.

    The law is declared critical (regime II) when
    ``|gamma_star * sqrt(m) - 1| <= _REGIME_TOL``.
    """
    m = malthusian(law)
    roots, mults = _root_analysis(law, m)
    mu = moments(law).mu
    derivs = _polyval(_poly_deriv(mu), roots)

    # Secondary roots: all but 1/m, a simple root substituted exactly.  Without any, gamma_star is inf.
    inv_m = 1.0 / m
    modulus = np.where(roots == inv_m, math.inf, np.abs(roots))
    gamma_star = float(modulus.min())
    if gamma_star <= inv_m * (1.0 + 1e-12):
        raise RuntimeError(f"minimal secondary root modulus {gamma_star!r} does not exceed 1/m")
    crit = np.flatnonzero((modulus <= gamma_star * (1.0 + _REGIME_TOL)) & (modulus < math.inf))
    gamma_crit = tuple(dict.fromkeys(roots[crit].tolist()))  # copies of a multiple root are equal
    non_simple = bool(((mults[crit] >= 2) | (np.abs(derivs[crit]) <= 1e-8)).any())

    scaled = gamma_star * math.sqrt(m)
    margin = scaled - 1.0
    if math.isinf(scaled) or margin > _REGIME_TOL:
        regime = "I"
    elif margin < -_REGIME_TOL:
        regime = "III"
    else:
        regime = "II"

    flagged = tuple(np.flatnonzero(_backward_error(mu, roots) > _RESIDUAL_FLAG).tolist())
    return SpectralReport(
        m=m,
        alpha=math.log(m),
        roots=tuple(roots.tolist()),
        residuals=tuple(np.abs(1.0 - _polyval(mu, roots)).tolist()),
        multiplicities=tuple(mults.tolist()),
        derivs=tuple(derivs.tolist()),
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


def _orbit(tab, steps: int, width: int) -> np.ndarray:
    """Rows ``T^s v`` for ``s = 0..steps`` over components ``0..width``: a read-only view into the table's orbit store.

    The store is built at ``tab.growth``.  A request outside it rebuilds it from :func:`vector_v`, each dimension out
    to the next power of two, by the arithmetic of :func:`_apply_T_mu`.  As ``(T y)_k`` reads only components below
    ``k`` and ``chi`` reads ``0..K``, a narrower window is a bit-exact prefix of a wider one, so every request
    reads the same bits whichever came first.  Rows past float64 are kept as they come; the readers check.
    """
    store = tab._orbit
    if steps >= store.rows.shape[0] or width >= store.rows.shape[1]:
        m, kept = tab.growth, store.rows.shape
        rows = np.empty((max(kept[0], _pow2_at_least(steps + 1)), max(kept[1], _pow2_at_least(width + 1))))
        rows[0] = vector_v(m, rows.shape[1] - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, len(rows)):
                rows[s] = _apply_T_mu(tab.mu, m, rows[s - 1])
        rows.flags.writeable = False
        store.rows = rows
    return store.rows[: steps + 1, : width + 1]


def _pow2_at_least(n: int) -> int:
    """The least power of two ``>= n`` (1 for ``n <= 1``)."""
    return 1 << max(n - 1, 0).bit_length()


def eigen_direction(law: OffspringLaw, gamma: complex, m: float, trunc: int):
    """Eigenvector window of T at eigenvalue ``1/gamma`` for a simple root.

    Returns ``(u, u_scaled)`` with ``u_k = gamma^k - m^-k`` (so ``T u = u / gamma``)
    and ``u_scaled = u / (gamma (gamma - 1) mu_hat'(gamma))``, the coefficient
    vector that pairs with the innovations in the oscillation expansion.

    Faults if ``gamma`` is not a root to 1e-10, coincides with ``1/m``
    (degenerate direction), or is a multiple root (``mu_hat'(gamma) = 0``).
    """
    mu = moments(law).mu
    gamma = complex(gamma)
    resid = abs(1.0 - _polyval(mu, gamma))
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
