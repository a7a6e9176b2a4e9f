"""Limiting covariance structure of the normalized prediction errors.

In regime I the centered statistics converge jointly to Gaussians whose
covariances are inner products in ``L^2(nu)`` for a finite measure ``nu`` on
the circle ``|z| = m^{-1/2}`` with density (relative to ``dtheta / 2 pi``)

    d(theta) = ((m - 1)/m) Sigma(z) / (|1 - z|^2 |1 - mu_hat(z)|^2).

The density is rational in ``w = e^{i theta}``, so :func:`build_spectrum` solves
exactly for its autocovariances with small linear systems (the tests sample the
density on a contour as an independent check).  In regime II the measure
degenerates to point masses at the critical roots, which lie on the same circle,

    w_p = (m - 1) Sigma(gamma_p) / (|1 - gamma_p|^2 |mu_hat'(gamma_p)|^2),

and in regime III no limiting covariance exists (the fluctuations oscillate);
asking for the measure there is refused.  The statistic attached to a
coefficient vector ``a`` (a finitely supported map lag -> real, negative lags
allowed) has limiting variance ``int |sum_k a_k (z^k - m^-k)|^2 dnu``.

Both regimes read every covariance from one moment matrix (:func:`_moment_matrix`), ``Re int z^a conj(z)^b`` against
``nu`` or ``|z - 1/m|^2 dnu`` with each nonnegative power taken in the unit ``u = m^(1/2)``, as ``(z u)^a``: on the
circle an entry is ``r^{-(a- + b-)} gamma_{|a-b|}``, ``a- = max(-a, 0)``, with atoms a weighted sum over the atoms,
and nothing else tells the two apart.  Only :func:`cov_pair` pairs raw symbols, as ``f M g^T`` for their rows ``f, g``.

Every ``zeta`` covariance is read from one lag table per spectrum: the limiting covariance ``C[j, k]`` of ``zeta_j``
and ``zeta_k`` over lag -1 and the lags asked for so far (lag 0 is left out, as ``zeta_0 = 0``), built lazily and
rebuilt wider when a lag outside it is requested.  :func:`_build_table` walks ``zeta_k = (z - 1/m) q_k``, ``q_0 = 0``,
``q_k = q_{k-1}/m + z^{k-1}``, ``q_{-k} = m q_{-(k-1)} - m z^{-k}``, one array op per ``k`` down the moment matrix,
then over the rows, so an entry has the same bits whatever range it is walked over.  In the unit ``u`` the table
keeps ``u^(j' + k') C[j, k]`` (``j' = j - 1`` for ``j > 0``, else 0), of the order of the mass out to lag 512, and a
reader unscales it once, by ``u^-(j' + k')``; a variance left below float64's normal range faults by name in
:func:`variance` and :func:`cov_lagged`.  :func:`predictor_coeffs` reads its Gram and right-hand side from the table;
:func:`variance`, the CLI's covariance table and the mean part of :func:`char_variance_full` are ``A C A^T`` over the
lags of their coefficient vectors ``A``.  As ``z^ell zeta_k = zeta_{k+ell} - m^-k zeta_ell``, :func:`cov_lagged` is
``m^(ell/2) (C[k+ell, k] - m^-k C[ell, k])``, so ``cov_lagged(k, 0) == variance({k: 1})`` bit for bit.  The cross
term of :func:`char_variance_full` reads the coefficients of ``q_k`` off the walk over the identity.

Coefficient vectors and raw Laurent symbols are plain ``{int: float}`` dicts
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import RefusalError
from .offspring import _SIGMA_CLAMP, OffspringLaw, _polyval, _sigma_folds, _sigma_form, moments
from .spectral import _MAX_LAG, SpectralReport, _pow2_at_least, _require_in, vector_v

__all__ = [
    "Autocovariance",
    "LimitSpectrum",
    "PredictorRule",
    "build_spectrum",
    "variance",
    "cov_pair",
    "cov_lagged",
    "sigma2_series",
    "char_variance_full",
    "predictor_coeffs",
    "oscillation_profile",
]


@dataclass(frozen=True, eq=False)
class Autocovariance:
    """``gamma_h = int e^{i h theta} S(w) / |phi(w)|^2 dtheta/2pi`` for ``h = 0..deg phi``, and the causal ``phi``."""

    gamma: np.ndarray
    ar: np.ndarray

    def upto(self, n: int) -> np.ndarray:
        """``gamma_0..gamma_n``, extended by the recursion ``sum_i phi_i gamma_{h-i} = 0`` past ``deg S``."""
        gamma, phi = self.gamma.tolist(), self.ar.tolist()
        while len(gamma) <= n:
            gamma.append(-sum(c * g for c, g in zip(phi[1:], gamma[::-1])) / phi[0])
        if not all(map(math.isfinite, gamma)):
            raise RuntimeError(f"autocovariance recursion left float64 before lag {n}")
        return np.array(gamma[: n + 1])


#: Lags 1..8 at least in a new lag table: a build costs about what walking nine more lags does (55 us against
#: 6 us a lag on a 2 vCPU Xeon), so a smaller table only adds builds.  The size changes no bits (see _walk).
_LAG_TABLE_START = 8

#: The smallest normal float64: a variance below it that reads a nonzero lag-table entry has lost its value.
_TINY = np.finfo(float).tiny


class _LagTable:
    """A spectrum's lag table: the read-only covariances over the lags ``lo..hi`` without 0 (``lo <= 0 <= hi``), row
    and column ``k - lo`` for a negative lag and ``k - lo - 1`` for a positive one.

    ``cov[j, k]`` holds ``u^(j' + k') C[j, k]`` in the unit ``u = m^(1/2)``, with ``j' = j - 1`` for ``j > 0`` and
    0 for ``j < 0`` (``n`` holds ``j'`` by row), as :func:`_build_table` walks it, and ``down[n]`` is ``u^-n`` for
    ``n = 0..2 (hi - 1)``.  At positive lags ``C[j, k]`` shrinks like ``u^-(j + k)``, below float64's normal range
    near lag 512 once ``m`` passes about 6, while the stored entry stays of the order of the mass.
    """

    def __init__(self) -> None:
        self.lo = self.hi = 0
        self.cov, self.n, self.down = np.zeros((0, 0)), np.zeros(0, dtype=int), np.ones(1)

    def index(self, j: int) -> int:
        """Row and column of lag ``j``."""
        return j - self.lo - (j > 0)


@dataclass(frozen=True, eq=False)
class LimitSpectrum:
    """The limiting covariance measure: exact autocovariances on the circle (regime I) or atoms (regime II).

    Circle form: on ``z = r w``, ``r = m^{-1/2}``, ``int z^j conj(z)^k dmu = r^{j+k} gamma_{|j-k|}`` for all integers
    ``j, k``; ``moments`` holds the ``gamma_h`` of ``nu``, ``centered`` those of ``|z - 1/m|^2 dnu``.  Statistics
    ``sum_k a_k (z^k - m^-k)`` carry the factor ``z - 1/m`` and use ``centered``: as ``m -> 1`` ``nu`` piles up at
    ``z = r`` and its sums for them cancel.  Atoms form: a tuple of ``(location, weight)`` pairs on the same circle.
    Only :func:`_moment_matrix` reads either form.
    """

    kind: str
    m: float
    radius: float | None = None
    moments: Autocovariance | None = None
    centered: Autocovariance | None = None
    atoms: tuple[tuple[complex, float], ...] | None = None
    _table: _LagTable = field(default_factory=_LagTable, init=False, repr=False)

    #: Both forms are exact: there is no quadrature grid to size or to leave unconverged.
    grid_size = 0
    converged = True

    @cached_property  # every predictor_coeffs call reads it
    def total_mass(self) -> float:
        return float(_moment_matrix(self, 0, 0, centered=False)[0, 0])

    def _lag_table(self, lo: int, hi: int) -> _LagTable:
        """The lag table, first rebuilt wider if the lags ``lo..hi`` (``lo <= 0 <= hi``) are not all in it.

        A rebuild takes each side out to the next power of two, so ever wider requests rebuild it only a few times
        and requests within ``[-2^j, 2^j]`` never make it wider; the table always takes lag -1, the one-step
        predictor's target, and lags up to ``_LAG_TABLE_START``.
        """
        table = self._table
        if lo < table.lo or hi > table.hi:
            _build_table(self, min(table.lo, -_pow2_at_least(-lo)), max(table.hi, _pow2_at_least(hi), _LAG_TABLE_START))
        return table

    def _lag_cov(self, lo: int, hi: int) -> np.ndarray:
        """The limiting covariance matrix of ``zeta_k`` over the lags ``lo..hi`` without 0, a fresh array; an entry
        below float64's normal range reads as a subnormal or 0."""
        table = self._lag_table(lo, hi)
        span = slice(lo - table.lo, hi - table.lo)
        n = table.n[span]
        return table.cov[span, span] * table.down[n[:, None] + n]


def _series_ratio(num, den: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` Taylor coefficients of ``num(z) / den(z)`` by long division, or fewer: the division stops at the
    first coefficient past float64, which ends the array.  The buffer starts at 1024 coefficients and doubles as the
    division goes, so a stop at ``j`` costs ``j`` steps and ``O(j)`` bytes however large ``n`` is."""
    out = np.zeros(min(n, 1024))
    for j in range(n):
        if j == len(out):
            out = np.concatenate((out, np.zeros(min(j, n - j))))
        k = min(j, len(den) - 1)
        out[j] = ((num[j] if j < len(num) else 0.0) - den[1 : k + 1] @ out[j - k : j][::-1]) / den[0]
        if not math.isfinite(out[j]):
            return out[: j + 1]
    return out


def _deflate(mu: np.ndarray, m: float) -> np.ndarray:
    """``b`` in ``1 - mu_hat(z) = (1 - m z) b(z)``, divided from the top down: stable, as ``1/m`` is the smallest root.

    The remainder ``b_0 - 1`` measures how well ``m`` solves ``mu_hat(1/m) = 1``; above 1e-10 it faults.
    """
    b = [mu[-1] / m]
    for c in mu[-2:0:-1]:
        b.append((b[-1] + c) / m)
    if abs(b[-1] - 1.0) > 1e-10:
        raise RuntimeError(f"dividing 1 - mu_hat(z) by 1 - m z leaves remainder {b[-1] - 1.0!r}: m is not a root")
    return np.array(b[::-1])


def _arma_autocov(phi: np.ndarray, s: np.ndarray) -> Autocovariance:
    """Autocovariances of ``S(w) / |phi(w)|^2``, ``S = sum_{|h| < len(s)} s_|h| w^h``, for a causal ``phi``.

    With ``psi = 1/phi``, ``sum_i phi_i gamma_{|h-i|} = sum_j psi_j s_{h+j}`` for ``h = 0..deg phi`` is one square
    solve (Brockwell & Davis, *Time Series: Theory and Methods*, §3.3).
    """
    xi = np.zeros(len(phi))
    xi[: len(s)] = np.convolve(s[::-1], _series_ratio([1.0], phi, len(s)))[len(s) - 1 :: -1]
    lag = np.arange(len(phi))
    system = np.zeros((len(phi), len(phi)))
    np.add.at(system, (lag[:, None], np.abs(lag[:, None] - lag)), phi)
    gamma = np.linalg.solve(system, xi)
    if not np.all(np.isfinite(gamma)):
        raise RuntimeError("the autocovariance solve left float64")
    return Autocovariance(gamma=gamma, ar=phi)


def build_spectrum(report: SpectralReport, tab) -> LimitSpectrum:
    """Construct the limiting covariance measure for a classified law.

    Regime I: with ``z = r w`` and ``1 - mu_hat = (1 - m z) b(z)``, ``nu`` has density ``S(w) / |phi(w)|^2`` with
    ``phi(w) = (1 - r w)^2 b(r w)`` and ``s_h = ((m-1)/m) r^{2+h} D_h(r^2)`` from the folded Sigma; on the circle
    ``|z - 1/m|^2 = r^2 |1 - r w|^2``, so the centered measure drops one factor ``1 - r w``.  A covariance table
    with an eigenvalue below ``-1e-12 max(1, max sigma_kk)`` makes Sigma negative somewhere: a fault (ValueError).
    Regime II with simple critical roots: exact atoms, where Sigma below -1e-12 is a fault.  Regime III and
    non-simple critical roots: refused, no limiting covariance exists.
    """
    if report.regime == "III":
        raise RefusalError("regime III: fluctuations oscillate without a limiting covariance (use the oscillation profile)")
    if report.regime == "II" and report.non_simple:
        raise RefusalError("non-simple critical root: the regime-II limit theorem does not apply")
    m = report.m
    if report.regime == "II":
        crit = np.array(report.gamma_crit, dtype=complex)
        deriv = np.array([report.derivs[report.roots.index(g)] for g in report.gamma_crit])  # mu_hat' from classify
        weights = (m - 1.0) * _sigma_form(tab.sigma, crit, np.abs(crit) ** 2) / (np.abs(1.0 - crit) ** 2 * np.abs(deriv) ** 2)
        return LimitSpectrum(kind="atoms", m=m, atoms=tuple((complex(g), float(w)) for g, w in zip(crit, weights)))
    r, sigma = m**-0.5, tab.sigma
    try:  # factorizable unless an eigenvalue is below -tol; much cheaper than eigvalsh under threaded BLAS
        np.linalg.cholesky(sigma - _SIGMA_CLAMP * max(1.0, float(np.max(np.diag(sigma)))) * np.eye(len(sigma)))
    except np.linalg.LinAlgError:
        low = float(np.linalg.eigvalsh(sigma)[0])
        raise ValueError(f"Sigma(z) is not a covariance form: its table has eigenvalue {low!r}") from None
    powers = r ** np.arange(len(sigma) + 2)
    s = ((m - 1.0) / m) * powers[2:] * _sigma_folds(sigma, r**2)
    centered_ar = np.convolve([1.0, -r], _deflate(tab.mu.tolist(), m) * powers[: len(sigma) - 1])
    moments_ = _arma_autocov(np.convolve([1.0, -r], centered_ar), s)
    return LimitSpectrum(kind="circle", m=m, radius=r, moments=moments_, centered=_arma_autocov(centered_ar, r * r * s))


def _walk(steps: np.ndarray, m: float, lo: int, hi: int, up: float | None = None) -> np.ndarray:
    """Rows ``k = lo..hi`` but 0 of ``x_0 = 0``, ``x_k = x_{k-1}/up + y_{k-1}`` up and ``x_k = m x_{k+1} - m y_k`` down.

    ``steps`` holds ``y_lo..y_{hi-1}`` as rows; rows come out laid out as in :class:`_LagTable`.  One array op per
    row, each entry walking out from ``x_0``, so every entry takes the same flops whatever ``lo`` and ``hi`` are.
    ``up`` is ``m`` unless given; ``up = u = m^(1/2)`` walks in the unit ``u``: as ``u / m = 1 / u``, with ``y_a``
    (``a >= 0``) given as ``u^a y_a``, ``x_k`` (``k > 0``) comes out as ``u^(k-1) x_k``.
    """
    x, my = np.zeros(steps.shape[1]), m * steps
    down = [x := m * x - my[k - lo] for k in range(-1, lo - 1, -1)][::-1]
    x, up = np.zeros(steps.shape[1]), m if up is None else up
    return np.array(down + [x := x / up + steps[k - 1 - lo] for k in range(1, hi + 1)])


def _moment_matrix(spectrum: LimitSpectrum, lo: int, hi: int, centered: bool = True) -> np.ndarray:
    """``M[a - lo, b - lo] = Re int (z u)^a+ z^-a- conj((z u)^b+ z^-b-)`` for ``a, b = lo..hi``, ``u = m^(1/2)``,
    ``a+ = max(a, 0)``, ``a- = max(-a, 0)``, against ``|z - 1/m|^2 dnu`` when ``centered``, else against ``nu``.

    On the circle ``|z u| = 1``, so an entry is ``r^{-(a- + b-)} gamma_{|a-b|}``, the power one scalar power; with
    atoms it is ``sum_p w_p g_a conj(g_b)`` with ``g_a = (gamma_p u)^a`` for ``a >= 0`` and ``gamma_p^a`` below, and
    ``w_p |gamma_p - 1/m|^2`` when centered, summed in atom order.  Either way an entry has the same bits whatever
    ``lo`` and ``hi`` are; entries past float64 are left for the caller to name.
    """
    e = np.arange(lo, hi + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if spectrum.kind == "circle":
            gamma = (spectrum.centered if centered else spectrum.moments).upto(hi - lo)
            neg, r = np.maximum(-e, 0), np.float64(spectrum.radius)
            r_pow = np.array([r**-n for n in range(2 * max(-lo, 0) + 1)])
            return r_pow[neg[:, None] + neg] * gamma[np.abs(e[:, None] - e)]
        m, out = spectrum.m, np.zeros((len(e), len(e)), dtype=complex)
        for g, w in spectrum.atoms:
            weight = w * abs(g - 1.0 / m) ** 2 if centered else w
            plain, unit = np.complex128(g), np.complex128(g * math.sqrt(m))
            powers = np.array([unit**a if a >= 0 else plain**a for a in range(lo, hi + 1)])
            out += weight * (powers[:, None] * np.conj(powers))
        return out.real


def _build_table(spectrum: LimitSpectrum, lo: int, hi: int) -> None:
    """Build the lag table of ``spectrum`` over the lags ``lo..hi`` (``lo < 0 < hi``): the symmetric part of ``raw[j, k]
    = Re int zeta_k conj(zeta_j) dnu``, walked by :func:`_walk` down the centered moment matrix's rows, then columns,
    in the unit ``u = m^(1/2)`` of both (see :class:`_LagTable`)."""
    m, u = spectrum.m, math.sqrt(spectrum.m)
    with np.errstate(over="ignore", invalid="ignore"):  # far negative lags can leave float64; the readers fault
        pairs = _walk(_moment_matrix(spectrum, lo, hi - 1), m, lo, hi, u)  # pairs[k, b] = <q_k, z^b>, in units
        raw = _walk(pairs.T, m, lo, hi, u)
        cov = 0.5 * (raw + raw.T)
    cov.flags.writeable = False
    table = spectrum._table
    table.lo, table.hi, table.cov, table.n = lo, hi, cov, np.maximum(np.arange(lo, hi), 0)
    table.down = np.array([u**-n for n in range(2 * hi - 1)])


def _cov_matrix(spectrum: LimitSpectrum, vectors: list) -> np.ndarray:
    """Limiting covariance matrix of the statistics ``sum_k a_k zeta_k`` for coefficient vectors ``a``.

    It is ``A C A^T`` over the lags the vectors use (``zeta_0 = 0`` adds nothing, nor does a zero coefficient),
    reading only their rows and columns of the lag table.  An entry past float64 faults (RuntimeError), as does a
    variance below float64's normal range that reads a nonzero table entry (see :class:`_LagTable`).
    """
    support = [{int(k): float(c) for k, c in a.items() if k and c} for a in vectors]
    _require_in("lag", max([0, *(k for a in support for k in a)], key=abs), -_MAX_LAG, _MAX_LAG)
    lags = sorted({k for a in support for k in a})
    lo, hi = (min(lags[0], 0), max(lags[-1], 0)) if lags else (0, 0)
    table, column = spectrum._lag_table(lo, hi), {k: i for i, k in enumerate(lags)}
    rows = np.zeros((len(support), len(lags)))
    for row, a in zip(rows, support):
        row[[column[k] for k in a]] = list(a.values())
    index = np.array([k - table.lo - (k > 0) for k in lags], dtype=int)  # table.index(k), inline for speed
    n = table.n[index]
    # A fresh contiguous array keeps BLAS on the same path whatever the size of the table it came from.
    block, scale = table.cov.take(index, 0).take(index, 1), table.down[n[:, None] + n]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = rows @ (block * scale) @ rows.T
        finite = math.isfinite(cov.sum()) or np.isfinite(cov).all()  # a finite sum has finite entries
    if not finite:
        raise RuntimeError(f"a limiting covariance over the lags {lo}..{hi} left float64")
    small = [i for i, v in enumerate(cov.diagonal().tolist()) if abs(v) < _TINY]
    if small and ((rows[small] != 0.0) @ (block != 0.0) @ (rows[small].T != 0.0)).diagonal().any():  # nonzero reads
        raise RuntimeError(f"a limiting variance over the lags {lo}..{hi} is below float64's normal range")
    return 0.5 * (cov + cov.T)


def variance(spectrum: LimitSpectrum, a: dict[int, float]) -> float:
    """Limiting variance of ``sum_k a_k zeta_k``: ``int |sum a_k (z^k - m^-k)|^2 dnu``."""
    return float(_cov_matrix(spectrum, [a])[0, 0])


def cov_pair(spectrum: LimitSpectrum, f: dict[int, float], g: dict[int, float]) -> float:
    """Real L^2(nu) inner product ``Re int F(z) conj(G(z)) dnu`` of raw Laurent symbols; faults (RuntimeError) past
    float64.  The coefficient of ``z^a`` is taken times ``r^(a+)``, ``r = m^(-1/2)``, onto the moment matrix's
    ``(z u)^a``."""
    keys = [int(k) for k in (*f, *g)] or [0]
    lo, hi = min(keys), max(keys)
    rows = np.zeros((2, hi - lo + 1))
    for row, symbol in zip(rows, (f, g)):
        row[[int(k) - lo for k in symbol]] = list(symbol.values())
    r = spectrum.m**-0.5
    rows *= [r ** max(a, 0) for a in range(lo, hi + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(rows[0] @ _moment_matrix(spectrum, lo, hi, centered=False) @ rows[1])
    if not math.isfinite(value):
        raise RuntimeError(f"the pairing of {f} with {g} left float64")
    return value


def cov_lagged(spectrum: LimitSpectrum, k: int, ell: int) -> float:
    """Covariance of ``zeta_k`` with its ``ell``-step-later counterpart, ``Re int (z m^(1/2))^ell |zeta_k|^2 dnu``.

    As ``z^ell zeta_k = zeta_{k+ell} - m^-k zeta_ell``, it is ``m^(ell/2) C[k+ell, k] - m^(ell/2-k) C[ell, k]`` read
    from the lag table, a term at lag 0 being 0: ``m^(p/2) C[j, k]`` is the stored entry times the one power
    ``u^(p - j' - k')``, so ``cov_lagged(k, 0)`` is the table's diagonal, as ``variance`` reads it.  The table may
    grow to lag ``k + ell``, at most 512.  Faults (RuntimeError) past float64, and where the variance of ``zeta_k``
    is below float64's normal range but not 0: the covariance, which it bounds, is then lost too.
    """
    _require_in("k", k, -_MAX_LAG, _MAX_LAG)
    _require_in("ell", ell, 0, _MAX_LAG)
    if k == 0:
        return 0.0  # zeta_0 = 0
    table, u = spectrum._lag_table(min(k, 0), max(k, 0) + ell), math.sqrt(spectrum.m)

    def term(j: int, p: int) -> float:  # m^(p/2) C[j, k]
        if j == 0:
            return 0.0
        entry = float(table.cov[table.index(j), table.index(k)])
        try:
            return entry * u ** (p - max(j - 1, 0) - max(k - 1, 0))
        except OverflowError:  # past float64, named below
            return entry * math.inf

    value = term(k + ell, ell) - term(ell, ell - 2 * k)
    if not math.isfinite(value):
        raise RuntimeError(f"the covariance of zeta_{k} at lag ell = {ell} left float64")
    own = table.cov[table.index(k), table.index(k)] if k > 1 else 0.0  # below lag 2 the variance's scale is 1
    if own and abs(own * table.down[2 * k - 2]) < _TINY:  # the variance of zeta_k, as variance reads it
        raise RuntimeError(f"the covariance of zeta_{k} at lag ell = {ell} is below float64's normal range")
    return value


_STEIN_STEPS = 64  #: doublings, or 2^64 epochs; any margin float64 tells from 0 needs about log2(1/margin) + 6


def sigma2_series(law: OffspringLaw, report: SpectralReport, a: dict[int, float]) -> float:
    """Regime-I limiting variance summed over reproduction epochs, as a Stein equation in the window of ``T``.

    ``sigma^2(a) = sum_l (m^-l - m^-l-1) sum_{i,j<=min(l,K)} sigma_ij alpha_{l-i} alpha_{l-j}`` with
    ``alpha_s = <T^s v, a>``.  On windows ``0..n-1``, ``n = max(K, max a) + 1``, ``T`` is the shift plus
    ``v d^T`` (:func:`~cmjfluct.spectral.apply_T`), so the sum is ``(1 - 1/m) sum_ij sigma_ij m^-max(i,j)
    G(|i-j|)`` with ``G(h) = <T^h P a, a>`` and ``P = v v^T + B P B^T``, ``B = T/sqrt(m)``.  Smith's doubling
    (``P += B P B^T``, then ``B = B^2``) solves it in about ``log2(1/margin) + 6`` steps, so it stays finite up to
    the regime boundary.  It never touches the spectrum, so its agreement with :func:`variance` is a real check.
    Not converged within ``_STEIN_STEPS`` doublings, or ``P`` past float64: ``RuntimeError``.  Refused outside
    regime I; the window has no negative components (use :func:`variance` for negative lags).
    """
    if report.regime != "I":
        raise RefusalError(f"regime {report.regime}: the epoch series converges only in regime I")
    a = {int(k): float(c) for k, c in a.items() if c != 0.0}
    if not a:
        return 0.0
    for lag in a:
        _require_in("lag", lag, 0, _MAX_LAG)
    m, tab = report.m, moments(law)
    k_top = len(tab.mu) - 1
    n = max(k_top, max(a)) + 1
    v, d = vector_v(m, n - 1), np.zeros(n)
    d[: k_top + 1] = -np.diff(tab.mu, append=0.0)  # chi = d . y, as mu_0 = 0
    T = np.eye(n, k=-1) + np.outer(v, d)
    B, P = T / math.sqrt(m), np.outer(v, v)
    with np.errstate(over="ignore", invalid="ignore"):  # a P past float64 is named below
        for _ in range(_STEIN_STEPS):
            step = B @ P @ B.T
            P += step
            scale = np.max(np.abs(P))  # not finite exactly when some entry of P is not
            if not np.isfinite(scale):
                raise RuntimeError("the epoch-series Stein solve left float64")
            if np.max(np.abs(step)) <= 1e-17 * scale:
                break
            B = B @ B
        else:
            raise RuntimeError(f"the epoch-series Stein solve did not converge within {_STEIN_STEPS} doublings")
    vec = np.zeros(n)
    vec[list(a)] = list(a.values())
    x, G = P @ vec, np.empty(k_top)
    for h in range(k_top):
        G[h] = vec @ x
        x = T @ x
    i = np.arange(1, k_top + 1)
    weights = (1.0 / m) ** np.maximum(i[:, None], i) * G[np.abs(i[:, None] - i)]
    return (1.0 - 1.0 / m) * float(np.sum(tab.sigma[1:, 1:] * weights))


def _score_cross(law: OffspringLaw, m: float) -> float:
    """``char_variance_full``'s cross term ``int g(z) C(z) dtheta/2pi`` on ``|z| = m^{-1/2}``, as a finite sum.

    ``g = N / ((z - 1)(1 - mu_hat)) = -Ntilde(z) / (m (z - 1) b(z))`` with ``N = sum_k delta_k (z^k - m^-k)``,
    ``Ntilde = N / (z - 1/m)`` and ``b`` from :func:`_deflate` is analytic on the closed disc, so against
    ``C(z) = sum_{a,i} Cov(phi(a), N_i) z^i conj(z)^a`` only its Taylor coefficient ``g_{a-i}`` survives, at weight
    ``m^-a``.  An extending characteristic repeats its last row for every ``a > K_phi``: over ``n = a - i``
    that sums to ``g(1/m)`` less a partial sum.
    """
    tab = moments(law)
    cov = tab.gamma_phi  # (K_phi+1, K+1)
    ages, k_top = cov.shape[0], cov.shape[1] - 1
    b = _deflate(tab.mu.tolist(), m)
    size = len(tab.delta_lambda) - 1
    ntilde = (tab.delta_lambda[1:] @ _walk(np.eye(size), m, 0, size)).tolist()  # row k - 1 of the walk is q_k
    g = _series_ratio(ntilde, np.convolve([1.0, -1.0], b), ages) / m
    g = np.pad(g, (0, ages - len(g)), mode="edge")  # a g past float64 leaves the cross term non-finite
    a, i = np.arange(ages)[:, None], np.arange(k_top + 1)
    cross = float(np.sum(cov * np.where(a >= i, g[np.clip(a - i, 0, None)], 0.0) * (1.0 / m) ** a))
    if law.char_extends:
        g_at = _polyval(ntilde, 1.0 / m) / ((m - 1.0) * _polyval(b.tolist(), 1.0 / m))
        partial = np.concatenate(([0.0], np.cumsum(g * (1.0 / m) ** np.arange(ages))))
        cross += float(np.sum(cov[-1] * (1.0 / m) ** i * (g_at - partial[np.clip(ages - i, 0, None)])))
    return cross


def char_variance_full(law: OffspringLaw, report: SpectralReport, spectrum: LimitSpectrum) -> float:
    """Regime-I limiting variance of the scored total for a general characteristic.

    Three contributions: the individual score noise ``sum_k m^-k Var phi(k)``;
    a cross term coupling score noise to reproduction noise through
    ``C(z) = sum_{a,i} Cov(phi(a), N_i) z^i conj(z)^a`` against the plain
    angular measure; and the mean-step part, which is exactly the prediction
    variance of the increment vector of ``E phi``.  Refused outside regime I
    (elsewhere the mean part dominates at a different scale; compose
    Theorem-2/3 machinery with the increment vector instead).
    """
    if report.regime != "I":
        raise RefusalError(f"regime {report.regime}: the full characteristic limit is a regime-I statement")
    if spectrum.kind != "circle":
        raise RefusalError("need the circle-form spectrum of the same law")
    if not law.has_char:
        raise ValueError("law has no characteristic")
    m, tab = report.m, moments(law)
    var_phi = tab.var_phi
    own = float(np.sum(var_phi * (1.0 / m) ** np.arange(len(var_phi))))
    if law.char_extends:  # a frozen characteristic adds the geometric tail of its last age
        own += float(var_phi[-1]) * m ** -(len(var_phi) - 1) / (m - 1.0)
    cross = _score_cross(law, m)
    mean_part = variance(spectrum, {k: float(c) for k, c in enumerate(tab.delta_lambda)})
    return ((m - 1.0) / m) * (own - 2.0 * cross) + mean_part


@dataclass(frozen=True, eq=False)
class PredictorRule:
    """Best linear one-step predictor built from the limiting measure.

    ``coeffs[j]`` multiplies the prediction error at lag ``j + 1`` in the rule
    ``Z_hat_{n+1} = m Z_n + sum_k c_k X_{n,k}``.  ``residual_sq`` is the
    irreducible normalized one-step error predicted by the measure and
    ``target_sq`` the corresponding error of the naive rule (no correction).
    ``regularized`` marks a rank-deficient normal system solved with a tiny
    ridge.
    """

    m: float
    coeffs: np.ndarray
    residual_sq: float
    target_sq: float
    regularized: bool

    @property
    def residual_norm(self) -> float:
        return math.sqrt(self.residual_sq)

    def predict(self, z_n, x_lags):
        """Predict Z_{n+1} from Z_n and the lagged errors ``x_lags[..., j] = X_{n,j+1}``.

        ``z_n`` may be an array of replicates, ``x_lags`` then has one row each.
        """
        x = np.asarray(x_lags, dtype=float)
        if x.shape[-1] != len(self.coeffs):
            raise ValueError(f"need {len(self.coeffs)} lagged errors, got {x.shape[-1]}")
        predicted = self.m * np.asarray(z_n, dtype=float) + x @ self.coeffs
        return predicted if predicted.ndim else float(predicted)


def predictor_coeffs(spectrum: LimitSpectrum, K: int) -> PredictorRule:
    """Project the one-step-ahead symbol ``z^-1 - m`` onto ``{z^k - m^-k: k = 1..K}``.

    Solves the normal equations in ``L^2(nu)``; a numerically singular Gram
    (atoms form with more lags than atoms is rank-deficient by construction)
    gets a ``1e-12 * trace`` ridge and is flagged.  ``K = 0`` returns the
    naive rule.  Refused on a zero measure — prediction for a deterministic
    law is its exact recurrence, not a regression.
    """
    _require_in("K", K, 0, _MAX_LAG)
    if spectrum.total_mass <= 0.0:
        raise RefusalError("the limiting measure is zero (deterministic litters): use the exact recurrence")
    m = spectrum.m
    cov = spectrum._lag_cov(-1, K)
    target_sq = float(cov[0, 0])
    if K == 0:
        return PredictorRule(m=m, coeffs=np.zeros(0), residual_sq=target_sq, target_sq=target_sq, regularized=False)
    # Fresh contiguous copies, laid out as a pairwise-built Gram would be, keep BLAS on the same path.
    gram, rhs = cov[1:, 1:].copy(), cov[0, 1:].copy()
    regularized = False
    try:
        eig = np.abs(np.linalg.eigvalsh(gram))  # the 2-norm condition number of a symmetric Gram, without an SVD
        if eig.max() > 1e12 * eig.min():
            raise np.linalg.LinAlgError
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        regularized = True
        ridge = gram + 1e-12 * np.trace(gram) * np.eye(K)
        coeffs = np.linalg.solve(ridge, rhs)
    residual_sq = target_sq - 2.0 * float(rhs @ coeffs) + float(coeffs @ gram @ coeffs)
    return PredictorRule(
        m=m,
        coeffs=coeffs,
        residual_sq=max(residual_sq, 0.0),
        target_sq=target_sq,
        regularized=regularized,
    )


def _require_oscillating(report: SpectralReport) -> None:
    """Refuse unless ``report`` is regime III with simple critical roots, where the oscillation expansion holds."""
    if report.regime != "III":
        raise RefusalError(f"regime {report.regime}: oscillation profiles exist only in regime III")
    if report.non_simple:
        raise RefusalError("non-simple critical root: the oscillation expansion does not apply")


def oscillation_profile(report: SpectralReport, U, n: int, trunc: int) -> np.ndarray:
    """Regime-III oscillation profile ``sum_p (conj(gamma_p)/|gamma_p|)^n U_p u_p`` over the window ``0..trunc``.

    ``U`` holds one complex coefficient per critical root along its last axis (aligned with ``report.gamma_crit``);
    leading axes index replicates, and the result has shape ``(..., trunc + 1)``.  In every row a real root must
    carry a real coefficient and conjugate roots conjugate coefficients, to 1e-10 of the row's scale, or the call
    faults.  The roots are added one at a time in ``gamma_crit`` order, so a row has the same bits as a call on it
    alone.  Returns the real window approximating ``gamma_*^n X_n`` componentwise; ``trunc`` lies in
    ``[0, K + _MAX_LAG]``.
    """
    _require_oscillating(report)
    _require_in("trunc", trunc, 0, len(report.roots) + _MAX_LAG)
    crit = list(report.gamma_crit)
    U = np.asarray(U, dtype=complex)
    if U.shape[-1:] != (len(crit),):
        raise ValueError(f"need {len(crit)} coefficients (one per critical root) along the last axis, got shape {U.shape}")
    rows = U.reshape(-1, len(crit))
    tol = 1e-10 * np.maximum(1.0, abs(rows).max(axis=1))
    for p, g in enumerate(crit):
        if g.imag == 0.0:
            bad = abs(rows[:, p].imag) > tol
            if bad.any():
                raise ValueError(f"coefficient for real root {g!r} must be real, got {complex(rows[bad, p][0])!r}")
        else:
            q = next((j for j, h in enumerate(crit) if h == g.conjugate()), None)
            if q is None or (abs(rows[:, q] - rows[:, p].conj()) > tol).any():
                raise ValueError(f"conjugate-symmetry violated for root pair at {g!r}")
    profile = np.zeros((len(rows), trunc + 1), dtype=complex)
    inv_m = 1.0 / report.m
    for p, g in enumerate(crit):
        u = np.array([g**k - inv_m**k for k in range(trunc + 1)])
        profile += ((g.conjugate() / abs(g)) ** n * rows[:, p])[:, None] * u
    if (abs(profile.imag) > 1e-10 * np.maximum(1.0, abs(profile).max(axis=1, keepdims=True))).any():
        raise RuntimeError("profile has a non-vanishing imaginary part; conjugate symmetry check missed a case")
    return profile.real.reshape(*U.shape[:-1], trunc + 1)
