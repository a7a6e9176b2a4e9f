"""Offspring laws for age-structured branching populations on the integer lattice.

Every individual reproduces according to one of finitely many litter patterns
("atoms"): atom ``a`` is chosen with probability ``p_a`` and then deposits
``births[k]`` children at integer age ``k`` for ``k = 1..K``.  An optional
bounded characteristic attaches a deterministic score ``phi(age)`` to each
atom, evaluated at ages ``0..K_phi`` (and either zero or frozen at its last
value beyond that, depending on ``char_extends``).

This module owns the law container, structural construction checks, the
first/second moment tables, and the transforms

    mu_hat(z)  = sum_k  E[N_k] z^k
    Sigma(z)   = sum_a p_a |Xi_a(z) - mu_hat(z)|^2,   Xi_a(z) = sum_k births_a[k] z^k

used by the spectral and limit modules.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LitterAtom",
    "OffspringLaw",
    "MomentTable",
    "make_law",
    "validate_law",
    "moments",
    "mu_hat",
    "mu_hat_prime",
    "sigma_hat",
    "law_fingerprint",
]

#: Negative values of Sigma(z) below this threshold are treated as a fault
#: rather than roundoff.
_SIGMA_CLAMP = -1e-12


@dataclass(frozen=True)
class LitterAtom:
    """One litter pattern: probability, births by age, optional characteristic.

    ``births[k]`` is the number of children borne at age ``k``; index 0 is
    unused and always 0.  ``char_values[j]`` is the characteristic score at
    age ``j`` for ``j = 0..K_phi``; ``None`` when the law carries no
    characteristic.
    """

    prob: float
    births: tuple[int, ...]
    char_values: tuple[float, ...] | None = None

    @property
    def total(self) -> int:
        """Total number of children produced by this atom."""
        return sum(self.births)


@dataclass(frozen=True)
class OffspringLaw:
    """A finite-support offspring law, plus optional characteristic.

    All atoms store births over the common index range ``0..max_age`` and,
    when a characteristic is present, scores over ``0..char_max_age``;
    :func:`make_law` pads them so, and both ages are read off ``atoms[0]``.
    ``char_extends`` selects the tail convention for the characteristic:
    ``False`` means ``phi(age) = 0`` for ``age > char_max_age``; ``True``
    means the last tabulated value repeats forever.
    """

    atoms: tuple[LitterAtom, ...]
    char_extends: bool = False

    @property
    def max_age(self) -> int:
        """The largest age at which any atom bears a child."""
        return len(self.atoms[0].births) - 1

    @property
    def char_max_age(self) -> int | None:
        """The last age the characteristic tabulates, or ``None`` without one."""
        values = self.atoms[0].char_values
        return None if values is None else len(values) - 1

    @property
    def has_char(self) -> bool:
        return self.char_max_age is not None

    @property
    def mean_total(self) -> float:
        """Expected total number of children per individual."""
        return float(sum(a.prob * a.total for a in self.atoms))

    @cached_property
    def moment_table(self) -> MomentTable:
        """Exact first/second moment tables, built on first use and shared; the arrays are read-only."""
        probs = np.array([a.prob for a in self.atoms], dtype=float)
        births = np.array([a.births for a in self.atoms], dtype=float)  # (n_atoms, K+1)
        mu = probs @ births
        mu[0] = 0.0
        # covariance of the litters shifted by the first atom's: exact integers, so repeated litters give exactly 0
        shifted = births - births[0]
        mean_shift = probs @ shifted
        sigma = (shifted * probs[:, None]).T @ shifted - np.outer(mean_shift, mean_shift)
        sigma[0, :] = 0.0
        sigma[:, 0] = 0.0

        lambda_phi = var_phi = gamma_phi = delta_lambda = None
        if self.has_char:
            phi = np.array([a.char_values for a in self.atoms], dtype=float)  # (n_atoms, K_phi+1)
            lambda_phi = probs @ phi
            var_phi = probs @ (phi**2) - lambda_phi**2
            np.maximum(var_phi, 0.0, out=var_phi)
            gamma_phi = (phi * probs[:, None]).T @ births - np.outer(lambda_phi, mu)
            delta_lambda = np.zeros(len(lambda_phi) + 1)
            delta_lambda[: len(lambda_phi)] = lambda_phi
            delta_lambda[1 : len(lambda_phi)] -= lambda_phi[:-1]
            delta_lambda[len(lambda_phi)] = 0.0 if self.char_extends else -lambda_phi[-1]
        for arr in (mu, sigma, lambda_phi, var_phi, gamma_phi, delta_lambda):
            if arr is not None:
                arr.flags.writeable = False
        return MomentTable(
            mu=mu,
            sigma=sigma,
            lambda_phi=lambda_phi,
            var_phi=var_phi,
            gamma_phi=gamma_phi,
            delta_lambda=delta_lambda,
        )

    @cached_property
    def _verdict(self) -> str:
        """What :func:`_require_admissible` raises (``""`` for an admissible law), derived once and shared."""
        problems = validate_law(self)
        return "law fails standing assumptions: " + "; ".join(problems) if problems else ""


class _Orbit:
    """A moment table's orbit store: read-only rows ``T^s v`` at the table's growth factor (see
    :func:`~cmjfluct.spectral._orbit`)."""

    def __init__(self) -> None:
        self.rows = np.zeros((0, 0))


@dataclass(frozen=True, eq=False)
class MomentTable:
    """First and second moments of an offspring law.

    mu : (K+1,) array, ``mu[k] = E N_k`` (children borne at age k); ``mu[0] = 0``.
    sigma : (K+1, K+1) array, ``sigma[i, j] = Cov(N_i, N_j)``.
    lambda_phi / var_phi : (K_phi+1,) arrays of ``E phi(k)`` and ``Var phi(k)``,
        or ``None`` when the law has no characteristic.
    gamma_phi : (K_phi+1, K+1) array, ``gamma_phi[k, j] = Cov(phi(k), N_j)``.
    delta_lambda : (K_phi+2,) array of the increments ``lambda_phi[k] - lambda_phi[k-1]``, one slot past the
        table (zero when the characteristic extends, ``-lambda_phi[K_phi]`` when it drops to zero), so that
        ``(1 - z) * Lambda_hat(z) = sum_k delta_lambda[k] z^k`` exactly; ``None`` without a characteristic.

    The table also keeps the orbit ``T^s v`` of the forcing window, built lazily (:func:`~cmjfluct.spectral._orbit`).
    """

    mu: np.ndarray
    sigma: np.ndarray
    lambda_phi: np.ndarray | None = None
    var_phi: np.ndarray | None = None
    gamma_phi: np.ndarray | None = None
    delta_lambda: np.ndarray | None = None
    _orbit: _Orbit = field(default_factory=_Orbit, init=False, repr=False)

    @cached_property
    def growth(self) -> float:
        """Growth factor ``m`` solving ``mu_hat(1/m) = 1``: bisection then Newton, on first use."""
        coeffs = self.mu.tolist()  # Python floats keep the ~60 scalar evaluations off numpy scalars
        f = lambda x: _polyval(coeffs, x) - 1.0
        lo, hi = 1.0 / float(np.sum(self.mu)), 1.0
        # mu_hat(1/E[N]) <= 1 (equality only for single-age laws), mu_hat(1) > 1.
        if f(lo) >= 0.0:
            x = lo
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-15 * hi:
                    break
            x = 0.5 * (lo + hi)
            dcoeffs = _poly_deriv(self.mu).tolist()
            for _ in range(8):
                step = f(x) / _polyval(dcoeffs, x)
                x -= step
                if abs(step) <= 1e-16 * x:
                    break
        m = 1.0 / x
        if abs(f(x)) > 1e-12:
            raise RuntimeError(f"growth-factor solve did not converge: residual {abs(f(x))!r}")
        return m


def make_law(
    entries: Iterable[tuple],
    char_extends: bool = False,
) -> OffspringLaw:
    """Build an :class:`OffspringLaw` from ``(prob, births[, char])`` entries.

    ``births`` is either a mapping ``{age: count}`` with ages >= 1 or a
    sequence ``(n_1, ..., n_K)`` listing counts from age 1 upward.  ``char``
    is an optional sequence ``(phi(0), ..., phi(K_phi))``; either all entries
    carry one (of a common length) or none do.

    Raises ValueError on structural problems (bad probabilities, non-integer
    or negative counts, ragged characteristics).  Distributional assumptions
    are *not* checked here; see :func:`validate_law`.
    """
    raw: list[tuple[float, dict[int, int], tuple[float, ...] | None]] = []
    for idx, entry in enumerate(entries):
        where = f"atoms[{idx}]"
        if len(entry) == 2:
            prob, births = entry
            char: Sequence[float] | None = None
        elif len(entry) == 3:
            prob, births, char = entry
        else:
            raise ValueError(f"{where}: expected (prob, births[, char]), got {len(entry)} fields")
        prob = _to_float(prob, f"{where}: probability")
        if not math.isfinite(prob) or prob <= 0.0:
            raise ValueError(f"{where}: probability {prob} is not a finite positive number")
        if isinstance(births, dict):
            pairs = list(births.items())
        else:
            pairs = [(k + 1, c) for k, c in enumerate(births)]
        by_age: dict[int, int] = {}
        for age, count in pairs:
            age = int(age)
            if age < 1:
                raise ValueError(f"{where}: birth age {age} must be >= 1")
            if not _to_float(count, f"{where}: birth count at age {age}").is_integer() or count < 0:
                raise ValueError(f"{where}: birth count {count} at age {age} must be a non-negative integer")
            by_age[age] = by_age.get(age, 0) + int(count)
        char_tuple = None
        if char is not None:
            char_tuple = tuple(_to_float(v, f"{where}: characteristic value") for v in char)
            if not all(math.isfinite(v) for v in char_tuple):
                raise ValueError(f"{where}: characteristic values must be finite")
            if not char_tuple:
                raise ValueError(f"{where}: characteristic needs a score at age 0")
        raw.append((prob, by_age, char_tuple))

    if not raw:
        raise ValueError("law needs at least one atom")
    total_prob = sum(p for p, _, _ in raw)
    if abs(total_prob - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities sum to {total_prob!r}, expected 1 within 1e-12")

    max_age = max((age for _, by_age, _ in raw for age, c in by_age.items() if c > 0), default=0)
    if max_age == 0:
        raise ValueError("law has no births at all (every count is zero)")

    first = raw[0][2]
    for idx, (_, _, c) in enumerate(raw):
        if (c is None) != (first is None):
            raise ValueError(f"atoms[{idx}]: characteristic present on some atoms but not all")
        if c is not None and len(c) != len(first):
            raise ValueError(f"atoms[{idx}]: characteristic length {len(c)} differs from atoms[0]'s length {len(first)}")

    atoms = tuple(
        LitterAtom(
            prob=p,
            births=tuple(by_age.get(age, 0) for age in range(max_age + 1)),
            char_values=c,
        )
        for p, by_age, c in raw
    )
    return OffspringLaw(atoms=atoms, char_extends=bool(char_extends) if first is not None else False)


def _to_float(value, what: str) -> float:
    """``float(value)``, with an integer too large for a float reported as a ValueError naming ``what``."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def validate_law(law: OffspringLaw) -> list[str]:
    """Check the distributional assumptions; return a list of violations.

    An empty list means the law is admissible for the fluctuation theory:
    supercritical mean, at least one child in every litter, and birth ages
    not confined to a sublattice.  Each violation is a human-readable string
    naming the assumption and the offending quantity.
    """
    problems: list[str] = []
    mean_total = law.mean_total
    if not mean_total > 1.0:
        problems.append(f"supercriticality: E[total children] = {mean_total!r} must exceed 1")
    for idx, atom in enumerate(law.atoms):
        if atom.total < 1:
            problems.append(f"survival: atom {idx} (prob {atom.prob!r}) produces no children")
    tab = moments(law)
    support_ages = [k for k in range(1, law.max_age + 1) if tab.mu[k] > 0.0]
    span = 0
    for age in support_ages:
        span = math.gcd(span, age)
    if span > 1:
        problems.append(f"lattice span: birth ages {support_ages} share common divisor {span}, expected span 1")
    return problems


def moments(law: OffspringLaw) -> MomentTable:
    """Exact first/second moment tables of the litter vector and characteristic.

    The table is built once per law and shared by every caller (see
    :attr:`OffspringLaw.moment_table`); its arrays are read-only.
    """
    return law.moment_table


def _require_admissible(law: OffspringLaw) -> None:
    """Raise ValueError naming every standing assumption the law violates (see :func:`validate_law`)."""
    if law._verdict:
        raise ValueError(law._verdict)


def _polyval(coeffs, z):
    """Evaluate ``sum_k coeffs[k] z^k`` by Horner's rule; the result has the shape of ``z``.

    ``coeffs`` is an array or a list of Python floats; the latter keeps
    scalar evaluations in plain Python arithmetic.
    """
    acc = 0 * z + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _poly_deriv(coeffs: np.ndarray, order: int = 1) -> np.ndarray:
    """Coefficients of the ``order``-th derivative of ``sum_k coeffs[k] z^k``."""
    out = np.asarray(coeffs)
    for _ in range(order):
        out = out[1:] * np.arange(1, len(out))
    return out


def _sigma_folds(sigma: np.ndarray, rho) -> np.ndarray:
    """Diagonal folds ``D_h(rho) = sum_j sigma[j + h, j] rho^j`` for ``h = 0..K`` (Horner in ``rho``), ``h`` leading."""
    lag = np.arange(len(sigma))
    diagonals = np.concatenate((sigma, np.zeros_like(sigma)))[lag[:, None] + lag, lag[:, None]]  # [j, h] = sigma[j + h, j]
    return np.moveaxis(_polyval(diagonals, np.asarray(rho, dtype=float)[..., None]), -1, 0)


def _sigma_form(sigma: np.ndarray, z, rho):
    """``Sigma(z) = sum_{i,j} sigma[i, j] z^i conj(z)^j`` for a symmetric covariance table, given ``rho = |z|^2``.

    As ``z^(j+h) conj(z)^j = rho^j z^h``, the diagonals fold into :func:`_sigma_folds` ``D_h(rho)``
    and ``Sigma = D_0 + 2 Re sum_{h>0} D_h z^h``: O(K^2) once for the scalar ``rho`` of one circle, plus O(K) per point.
    Tiny negative roundoff (>= -1e-12) is clamped to zero; anything below means corrupted input and raises.  Shaped like ``z``.
    """
    z = np.asarray(z, dtype=complex)
    folded = _sigma_folds(sigma, rho)
    out = folded[0] + 2.0 * (z * _polyval(folded[1:], z)).real
    if np.any(out < _SIGMA_CLAMP):
        raise ValueError(f"Sigma(z) evaluated below {_SIGMA_CLAMP}: min {float(np.min(out))!r}")
    return np.maximum(out, 0.0)


def mu_hat(law: OffspringLaw, z):
    """Mean-litter transform ``mu_hat(z) = sum_k E[N_k] z^k`` (scalar or array z)."""
    return _polyval(moments(law).mu, np.asarray(z))


def mu_hat_prime(law: OffspringLaw, z):
    """Derivative ``mu_hat'(z) = sum_k k E[N_k] z^(k-1)``."""
    return _polyval(_poly_deriv(moments(law).mu), np.asarray(z))


def sigma_hat(law: OffspringLaw, z):
    """Litter variability transform ``Sigma(z) = sum_a p_a |Xi_a(z) - mu_hat(z)|^2``.

    Evaluated in its equal conjugate-bilinear form ``sum_{i,j} Cov(N_i, N_j) z^i conj(z)^j``, real and
    non-negative, folded at each point's own ``|z|^2`` in O(K^2) per point (see :func:`_sigma_form`).
    Tiny negative roundoff (>= -1e-12) is clamped to zero; anything below that indicates corrupted input and raises.
    """
    out = _sigma_form(moments(law).sigma, z, np.abs(z) ** 2)
    return out if out.shape else float(out)


def law_fingerprint(law: OffspringLaw) -> str:
    """Stable hex digest identifying the law (atoms, characteristic, tail flag)."""
    payload = {
        "atoms": [
            {
                "prob": repr(a.prob),
                "births": list(a.births),
                "char": None if a.char_values is None else [repr(v) for v in a.char_values],
            }
            for a in law.atoms
        ],
        "char_extends": law.char_extends,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
