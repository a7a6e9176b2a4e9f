"""Limiting covariance structure of the normalized prediction errors.

In regime I the centered statistics converge jointly to Gaussians whose
covariances are inner products in ``L^2(nu)`` for a finite measure ``nu`` on
the circle ``|z| = m^{-1/2}`` with density (relative to ``dtheta / 2 pi``)

    d(theta) = ((m - 1)/m) Sigma(z) / (|1 - z|^2 |1 - mu_hat(z)|^2).

In regime II the measure degenerates to point masses at the critical roots,

    w_p = (m - 1) Sigma(gamma_p) / (|1 - gamma_p|^2 |mu_hat'(gamma_p)|^2),

and in regime III no limiting covariance exists (the fluctuations oscillate);
asking for the measure there is refused.  The statistic attached to a
coefficient vector ``a`` (a finitely supported map lag -> real, negative lags
allowed) has limiting variance ``int |sum_k a_k (z^k - m^-k)|^2 dnu``.

Coefficient vectors and raw Laurent symbols are plain ``{int: float}`` dicts
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import RefusalError
from .offspring import OffspringLaw, _poly_deriv, _polyval, _sigma_form, char_moments, moments
from .spectral import SpectralReport

__all__ = [
    "LimitSpectrum",
    "PredictorRule",
    "build_spectrum",
    "variance",
    "cov_pair",
    "cov_lagged",
    "sigma2_series",
    "char_variance_centered",
    "char_variance_full",
    "predictor_coeffs",
    "oscillation_profile",
]

_MAX_GRID = 1 << 20
#: Quadrature grid size a circle spectrum starts from before doubling.
_DEFAULT_GRID = 4096


@dataclass(frozen=True, eq=False)
class LimitSpectrum:
    """The limiting covariance measure: circle density (regime I) or atoms (regime II).

    Circle form: ``points`` are the M grid points ``m^{-1/2} e^{i theta_j}`` at
    uniform angles and ``density`` the measure's density there, so that
    ``int f dnu = mean_j density_j f(points_j)``.  Atoms form: ``atoms`` is a
    tuple of ``(location, weight)`` pairs and the integral is a weighted sum.
    """

    kind: str
    m: float
    radius: float | None = None
    points: np.ndarray | None = None
    density: np.ndarray | None = None
    atoms: tuple[tuple[complex, float], ...] | None = None
    grid_size: int | None = None
    converged: bool = True

    @property
    def total_mass(self) -> float:
        if self.kind == "circle":
            return float(np.mean(self.density))
        return float(sum(w for _, w in self.atoms))

    def support(self) -> np.ndarray:
        """Points carrying the measure (grid samples or atom locations)."""
        if self.kind == "circle":
            return self.points
        return np.array([g for g, _ in self.atoms], dtype=complex)

    def integrate(self, values: np.ndarray) -> complex:
        """Integrate samples of a function given on :meth:`support` against nu."""
        if self.kind == "circle":
            return complex(np.mean(self.density * values))
        weights = np.array([w for _, w in self.atoms])
        return complex(np.sum(weights * values))


def _symbol_on(points: np.ndarray, coeffs: dict[int, float]) -> np.ndarray:
    """Evaluate the Laurent polynomial ``sum_k coeffs[k] z^k`` on points."""
    out = np.zeros(points.shape, dtype=complex)
    for k, c in coeffs.items():
        if c != 0.0:
            out += c if k == 0 else c * points ** int(k)
    return out


def _centered_symbol(a: dict[int, float], m: float) -> dict[int, float]:
    """Coefficients of ``sum_k a_k (z^k - m^-k)`` as a raw Laurent symbol."""
    out: dict[int, float] = {}
    shift = 0.0
    for k, c in a.items():
        k = int(k)
        out[k] = out.get(k, 0.0) + float(c)
        shift += float(c) * m ** (-k)
    out[0] = out.get(0, 0.0) - shift
    return out


def _circle_density(report: SpectralReport, tab, M: int, start: int = 0, step: int = 1):
    """Points and density at the angles ``2 pi j / M`` for ``j = start, start + step, ... < M``.

    Faults when ``mu_hat = 1`` on the circle, or (via the Sigma form) when
    Sigma is negative there.
    """
    m = report.m
    radius = m**-0.5
    theta = 2.0 * np.pi * np.arange(start, M, step) / M
    points = radius * np.exp(1j * theta)
    gap = np.abs(1.0 - _polyval(tab.mu, points))
    if gap.min() <= 1e-12:
        raise RuntimeError("mu_hat(z) = 1 on the integration circle; root geometry inconsistent with regime I")
    density = ((m - 1.0) / m) * _sigma_form(tab.sigma, points, radius**2) / (np.abs(1.0 - points) ** 2 * gap**2)
    return points, density


def build_spectrum(report: SpectralReport, tab, M: int = _DEFAULT_GRID) -> LimitSpectrum:
    """Construct the limiting covariance measure for a classified law.

    Regime I: circle density sampled at ``M`` uniform angles, with ``M``
    doubled until the variance of a probe vector moves by less than 1e-10
    relative (the integrand is analytic, so this converges geometrically).
    Regime II with simple critical roots: exact atoms.  Regime III and
    non-simple critical roots: refused, no limiting covariance exists.
    A value of Sigma below -1e-12 on the circle or at a critical root is a
    fault (ValueError).
    """
    if report.regime == "III":
        raise RefusalError("regime III: fluctuations oscillate without a limiting covariance (use the oscillation profile)")
    if report.regime == "II" and report.non_simple:
        raise RefusalError("non-simple critical root: the regime-II limit theorem does not apply")
    m = report.m
    if report.regime == "II":
        crit = np.array(report.gamma_crit, dtype=complex)
        deriv = _polyval(_poly_deriv(tab.mu), crit)
        weights = (m - 1.0) * _sigma_form(tab.sigma, crit, np.abs(crit) ** 2) / (np.abs(1.0 - crit) ** 2 * np.abs(deriv) ** 2)
        return LimitSpectrum(kind="atoms", m=m, atoms=tuple((complex(g), float(w)) for g, w in zip(crit, weights)))

    M = max(int(M), 8)
    points, density = _circle_density(report, tab, M)
    ref = None
    while True:
        spec = LimitSpectrum(kind="circle", m=m, radius=m**-0.5, points=points, density=density, grid_size=M)
        val = variance(spec, {1: 1.0})
        if ref is not None and abs(val - ref) <= 1e-10 * max(abs(val), 1e-30):
            return spec
        if M >= _MAX_GRID:
            return replace(spec, converged=False)
        # The grids are nested: angle 2 pi (2j) / (2M) rounds exactly as 2 pi j / M,
        # so only the M odd angles of the doubled grid are new.
        new_points, new_density = _circle_density(report, tab, 2 * M, start=1, step=2)
        points = np.stack((points, new_points), axis=1).reshape(-1)
        density = np.stack((density, new_density), axis=1).reshape(-1)
        ref, M = val, 2 * M


def variance(spectrum: LimitSpectrum, a: dict[int, float]) -> float:
    """Limiting variance of ``sum_k a_k zeta_k``: ``int |sum a_k (z^k - m^-k)|^2 dnu``."""
    symbol = _centered_symbol(a, spectrum.m)
    vals = np.abs(_symbol_on(spectrum.support(), symbol)) ** 2
    return float(spectrum.integrate(vals).real)


def _cov_matrix(spectrum: LimitSpectrum, fs: list, gs: list | None = None) -> np.ndarray:
    """Matrix of real inner products ``Re int F_j(z) conj(G_k(z)) dnu`` of raw Laurent symbols.

    ``gs`` defaults to ``fs`` (a Gram matrix).  Each symbol is evaluated on the
    support once; every entry is the same elementwise product and
    :meth:`LimitSpectrum.integrate` a single pair gets, so no entry depends on
    which other symbols share the call.
    """
    support = spectrum.support()
    g_conj = [np.conj(_symbol_on(support, g)) for g in (fs if gs is None else gs)]
    # Conjugating twice gives back the same bits, so a Gram matrix keeps only the conjugates.
    f_vals = (np.conj(v) for v in g_conj) if gs is None else (_symbol_on(support, f) for f in fs)
    return np.array([[float(spectrum.integrate(fv * gv).real) for gv in g_conj] for fv in f_vals])


def cov_pair(spectrum: LimitSpectrum, f: dict[int, float], g: dict[int, float]) -> float:
    """Real L^2(nu) inner product ``Re int F(z) conj(G(z)) dnu`` of raw Laurent symbols."""
    return float(_cov_matrix(spectrum, [f], [g])[0, 0])


def cov_lagged(spectrum: LimitSpectrum, k: int, ell: int) -> float:
    """Covariance of ``zeta_k`` with its ``ell``-step-later counterpart.

    ``Re int (z m^(1/2))^ell |z^k - m^-k|^2 dnu``; on the circle the lag factor
    is the pure oscillation ``e^(i ell theta)``.
    """
    if ell < 0:
        raise ValueError(f"lag ell = {ell} must be non-negative")
    m = spectrum.m
    support = spectrum.support()
    base = np.abs(_symbol_on(support, _centered_symbol({k: 1.0}, m))) ** 2
    vals = (support * math.sqrt(m)) ** ell * base
    return float(spectrum.integrate(vals).real)


def _epoch_forms(tab, m: float, a: dict[int, float]):
    """Yield the per-epoch quadratic forms ``q_l``, ``l = 1, 2, ...``, as float arrays in blocks.

    ``q_l = sum_{i,j=1}^{min(l,K)} sigma_ij alpha_{l-i} alpha_{l-j}`` with
    ``alpha_s = <T^s v, a>``, the pairing of the s-th operator iterate of the
    forcing window against the non-negative-lag vector ``a``.  Blocks hold
    ``K + 2`` epochs, then twice as many each time up to 4096.  The window
    iterates on Python floats in O(max(K, max a)) per epoch, summing ``chi``
    and each pairing in increasing lag; a block of ``L`` forms is one gather
    and one einsum, O(L K^2) in C.  Shared by the epoch series and the
    pathwise quadratic variation, which both raise at their first non-finite
    partial sum, so an overflowing form warns nothing.
    """
    mu = tab.mu.tolist()
    k_top = len(mu) - 1
    sig = tab.sigma[1:, 1:]
    top = max(k_top, max(a))
    inv = ((1.0 / m) ** np.arange(1, top + 1)).tolist()  # m^-1..m^-top, as vector_v and the T step form them
    y = [0.0] + inv
    alphas = [0.0] * k_top  # alpha_s sits at k_top + s; the zeros stand for s < 0
    done, size = 0, k_top + 2
    while True:
        while len(alphas) < k_top + done + size:
            acc = 0.0
            for k, c in a.items():
                acc += c * y[k]
            alphas.append(acc)
            chi = 0.0
            for k in range(1, k_top + 1):
                chi += mu[k] * (y[k] - y[k - 1])
            y = [0.0] + [prev + chi * r for prev, r in zip(y, inv)]
        windows = np.asarray(alphas)[k_top + np.arange(done + 1, done + size + 1)[:, None] - np.arange(1, k_top + 1)]
        # near the regime boundary the forms overflow; the caller raises at that epoch instead
        with np.errstate(over="ignore", invalid="ignore"):
            forms = np.einsum("li,ij,lj->l", windows, sig, windows)
        yield forms
        done, size = done + size, min(2 * size, 1 << 12)  # caps a window block at 4096 K floats


def sigma2_series(law: OffspringLaw, report: SpectralReport, a: dict[int, float]) -> float:
    """Regime-I limiting variance summed directly over reproduction epochs.

    ``sigma^2(a) = sum_l (m^-l - m^-l-1) sum_{i,j<=l} sigma_ij alpha_{l-i} alpha_{l-j}``
    with ``alpha_s = <T^s v, a>``.  Proven equal to the contour form; both are
    computed here independently so the agreement is a real check.  Truncates
    once a term falls below 1e-14 of the running sum (the terms decay like
    ``(m gamma_*^2)^-l`` in regime I).  Near the regime boundary the forms
    grow past float64 before the weights shrink them: the first non-finite
    partial sum raises ``RuntimeError`` naming its term, as does running out
    of the 100000-term budget.  Refused outside regime I; lags must be
    non-negative (the window iteration has no components there — use
    :func:`variance` for prediction lags).
    """
    if report.regime != "I":
        raise RefusalError(f"regime {report.regime}: the epoch series converges only in regime I")
    a = {int(k): float(c) for k, c in a.items() if c != 0.0}
    if not a:
        return 0.0
    if min(a) < 0:
        raise ValueError("negative lags have no epoch-series form; use variance() on the spectrum")
    m = report.m
    total = 0.0
    small_streak = 0
    forms = (form for block in _epoch_forms(moments(law), m, a) for form in block.tolist())
    for ell, form in zip(range(1, 100_000), forms):
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


def _weighted_var_sum(law: OffspringLaw, m: float) -> float:
    """``sum_k m^-k Var phi(k)`` including the geometric tail of a frozen characteristic."""
    var_phi = moments(law).var_phi
    k = np.arange(len(var_phi))
    total = float(np.sum(var_phi * (1.0 / m) ** k))
    if law.char_extends:
        total += float(var_phi[-1]) * m ** -(len(var_phi) - 1) / (m - 1.0)
    return total


def char_variance_centered(law: OffspringLaw, m: float) -> float:
    """Limiting variance of the scored total for a mean-zero characteristic.

    ``Var zeta^phi = ((m-1)/m) sum_k m^-k Var phi(k)``; exact finite sum (plus
    a geometric tail when the characteristic extends).  Faults unless
    ``E phi(k) = 0`` for every age within 1e-12.
    """
    if not law.has_char:
        raise ValueError("law has no characteristic")
    lam = moments(law).lambda_phi
    worst = float(np.max(np.abs(lam)))
    if worst > 1e-12:
        raise ValueError(f"characteristic is not centered: max |E phi(k)| = {worst!r}")
    return ((m - 1.0) / m) * _weighted_var_sum(law, m)


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
    m = report.m
    tab = moments(law)
    cm = char_moments(law, m)

    own = _weighted_var_sum(law, m)

    points = spectrum.points
    delta = {k: float(c) for k, c in enumerate(cm.delta_lambda)}
    n_sym = _symbol_on(points, _centered_symbol(delta, m))
    g_alpha = n_sym / ((points - 1.0) * (1.0 - _polyval(tab.mu, points)))
    gamma = cm.gamma_phi  # (K_phi+1, K+1)
    zbar = np.conj(points)
    cross_sym = np.zeros_like(points)
    birth_pow = points[:, None] ** np.arange(gamma.shape[1])
    for age in range(gamma.shape[0]):
        cross_sym += zbar**age * (birth_pow @ gamma[age])
    if law.char_extends:
        tail_age = gamma.shape[0]
        cross_sym += (zbar**tail_age / (1.0 - zbar)) * (birth_pow @ gamma[-1])
    cross = float(np.mean(g_alpha * cross_sym).real)

    mean_part = variance(spectrum, delta)
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
    if K < 0:
        raise ValueError(f"K = {K} must be >= 0")
    if spectrum.total_mass <= 0.0:
        raise RefusalError("the limiting measure is zero (deterministic litters): use the exact recurrence")
    m = spectrum.m
    target = {-1: 1.0, 0: -m}
    basis = [_centered_symbol({k: 1.0}, m) for k in range(1, K + 1)]
    cov = _cov_matrix(spectrum, [target] + basis)
    target_sq = float(cov[0, 0])
    if K == 0:
        return PredictorRule(m=m, coeffs=np.zeros(0), residual_sq=target_sq, target_sq=target_sq, regularized=False)
    # Fresh contiguous copies, laid out as a pairwise-built Gram would be, keep BLAS on the same path.
    gram, rhs = cov[1:, 1:].copy(), cov[0, 1:].copy()
    regularized = False
    try:
        if np.linalg.cond(gram) > 1e12:
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


def oscillation_profile(report: SpectralReport, U, n: int, trunc: int) -> np.ndarray:
    """Regime-III oscillation profile ``sum_p (conj(gamma_p)/|gamma_p|)^n U_p u_p``.

    ``U`` supplies one complex coefficient per critical root (aligned with
    ``report.gamma_crit``), conjugate roots carrying conjugate coefficients so
    the profile is real; a symmetry violation beyond 1e-10 faults.  Returns a
    real window approximating ``gamma_*^n X_n`` componentwise.
    """
    if report.regime != "III":
        raise RefusalError(f"regime {report.regime}: oscillation profiles exist only in regime III")
    if report.non_simple:
        raise RefusalError("non-simple critical root: the oscillation expansion does not apply")
    U = [complex(c) for c in U]
    if len(U) != len(report.gamma_crit):
        raise ValueError(f"need {len(report.gamma_crit)} coefficients (one per critical root), got {len(U)}")
    scale = max(1.0, max(abs(c) for c in U))
    crit = list(report.gamma_crit)
    for p, g in enumerate(crit):
        if g.imag == 0.0:
            if abs(U[p].imag) > 1e-10 * scale:
                raise ValueError(f"coefficient for real root {g!r} must be real, got {U[p]!r}")
        else:
            q = next((j for j, h in enumerate(crit) if h == g.conjugate()), None)
            if q is None or abs(U[q] - U[p].conjugate()) > 1e-10 * scale:
                raise ValueError(f"conjugate-symmetry violated for root pair at {g!r}")
    k = np.arange(trunc + 1)
    profile = np.zeros(trunc + 1, dtype=complex)
    inv_m = 1.0 / report.m
    for g, c in zip(crit, U):
        u = np.asarray(g) ** k - inv_m**k
        profile += (g.conjugate() / abs(g)) ** n * c * u
    if float(np.max(np.abs(profile.imag))) > 1e-10 * max(1.0, float(np.max(np.abs(profile)))):
        raise RuntimeError("profile has a non-vanishing imaginary part; conjugate symmetry check missed a case")
    return profile.real
