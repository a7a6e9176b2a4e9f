"""Exact cohort-aggregated simulation of the lattice branching process.

Individuals born at the same time are exchangeable, and each draws one litter
atom, so a path is its draws: how many newborns of each cohort drew each atom.
A trace stores them alone, as Python integers; births and totals derive from
them.  A step costs O(#atoms) whatever the population: the B_n newborns are
split across atoms by one exact draw of numpy's generator (a binomial for two
atoms, a multinomial for more), and future births accumulate as integer
counts.

The module also extracts every path functional the limit theorems refer to:
prediction errors X_{n,k} = Z_{n-k} - m^-k Z_n, reproduction innovations W_n,
scored characteristic totals, oscillation-coefficient estimates, and the
conditional quadratic variation of the count martingale, reading float64
arrays of the births and totals that a trace makes when it is built.  One
identity binds the draws, each cohort being the births its elders bear; a
trace checks it exactly on the Python integers when it is built, so a trace
with one draw off cannot be built and no functional reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import add, mul

import numpy as np

from .limits import _require_oscillating, _series_ratio
from .offspring import (
    OffspringLaw,
    _poly_deriv,
    _polyval,
    _require_admissible,
    law_fingerprint,
    moments,
)
from .spectral import _MAX_LAG, SpectralReport, _orbit, _require_in

__all__ = [
    "Trace",
    "UEstimate",
    "run",
    "fluctuations",
    "innovations",
    "char_total",
    "estimate_U",
    "martingale_qv",
    "verify_recursion",
    "expected_counts",
    "trace_csv",
]

#: Population cap of a run unless the caller sets one.
_DEFAULT_CAP = 1 << 62
#: Largest cohort numpy's draws accept: ``run()`` refuses a larger cap on a law with two or more atoms.
_DRAW_LIMIT = (1 << 63) - 1
#: Least integer that float() rounds past float64: halfway from the largest double, 2^1024 - 2^971, to 2^1024.
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)

#: Replicates per block of the batch engine; every block simulates all of them.
_BLOCK_SIZE = 200
#: Last word of every block seed, so no block seed equals a ``run()`` seed ``(master_seed, domain, i)``.
_BLOCK_TAG = 0x626C6B
#: Largest cap (and litter size) the batch engine's float64 overflow screen can certify.
_SCREEN_LIMIT = 1 << 62
#: A float64 total at or above this exceeds every admissible cap, even after rounding.
_SCREEN_FLOAT = 1.5 * _SCREEN_LIMIT
#: Largest campaign horizon: the batch engine's birth schedule takes 1,600 bytes a step per block (3,200 with its
#: totals), 32 MB here, and ``run()`` about 160 bytes a step.
_MAX_HORIZON = 10**4
#: How campaign replicates are drawn; campaign reports carry it.
_RNG_SCHEME = f"PCG64 block multinomial, {_BLOCK_SIZE} replicates per block"


@dataclass(frozen=True, eq=False)
class Trace:
    """One exact population path, held as its draws.

    ``cohort_atoms[n][a]`` counts the newborns at time ``n`` that drew atom
    ``a``, and ``litters[a]`` is that atom's births by age (the law's
    ``births``).  ``horizon``, the last time drawn, ``B[n]``, the newborns at
    time ``n``, and ``Z[n]``, their running total, are derived from the draws
    when the trace is built, so no copy can set them apart.  Every count is a
    Python integer.  If the population would have exceeded ``cap``, the trace
    ends at the last safe time and ``capped`` is set.

    Building a trace, a ``dataclasses.replace`` copy included, checks the
    one identity that binds its draws, exactly on the Python integers:
    ``B_0 = 1``, and for ``n >= 1`` each cohort is the births its elders
    bear, ``B_n = sum_{k>=1} sum_a cohort_atoms[n-k][a] litters[a][k]``.
    The first time it fails raises ``RuntimeError`` naming ``n`` and both
    counts; a trace with no draws (not even ``n = 0``'s) raises
    ``ValueError``.  The elders' births are summed a column and a nonzero
    age at a time by ``map``: 17-44 us on a capped path of horizon 70, a
    third to a half of a per-count loop's time (2 vCPU Xeon).  It then makes
    read-only float64 arrays of ``B`` and ``Z``, ``B_float`` and ``Z_float``,
    which the functionals read; a count past float64 (from 2^1024 on) raises
    ``OverflowError`` naming the first time ``n`` it is reached.
    """

    cohort_atoms: tuple[tuple[int, ...], ...]
    litters: tuple[tuple[int, ...], ...]
    seed: object
    cap: int
    capped: bool
    horizon: int = field(init=False)
    # plain fields rather than cached properties: perfbench reads B[n] and Z[n] one by one on every path (6 us a path,
    # against 10 us), and a cached property's first read takes a lock in Python 3.11 (2 us; 2 vCPU Xeon)
    B: tuple[int, ...] = field(init=False)
    Z: tuple[int, ...] = field(init=False)
    B_float: np.ndarray = field(init=False, repr=False)
    Z_float: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.cohort_atoms:
            raise ValueError("a trace needs the draw at n = 0: cohort_atoms is empty")
        births = tuple(map(sum, self.cohort_atoms))
        object.__setattr__(self, "horizon", len(births) - 1)
        object.__setattr__(self, "B", births)
        object.__setattr__(self, "Z", tuple(accumulate(births)))
        size = len(births)
        born = [1] + [0] * (size - 1)  # born[n]: the root at n = 0, then the births cohorts before n bear at n
        for column, litter in zip(zip(*self.cohort_atoms), self.litters):
            for k, b in enumerate(litter[1:size], 1):
                if b:
                    born[k:] = map(add, born[k:], column if b == 1 else map(mul, column, repeat(b)))
        if tuple(born) != births:
            n = next(n for n in range(size) if born[n] != births[n])
            raise RuntimeError(f"birth identity violated at n = {n}: B_n = {births[n]} but earlier cohorts bear {born[n]}")
        if self.Z[-1] >= _FLOAT_LIMIT:  # Z_n >= B_n >= 0, so Z passes float64 first
            n = next(n for n, z in enumerate(self.Z) if z >= _FLOAT_LIMIT)
            raise OverflowError(f"Z_{n} at n = {n} passes float64: a trace's float views need counts below 2^1024")
        for name, counts in (("B_float", births), ("Z_float", self.Z)):
            view = np.asarray(counts, dtype=float)
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def run(law: OffspringLaw, horizon: int, seed, cap: int = _DEFAULT_CAP) -> Trace:
    """Simulate one path started from a single individual born at time 0.

    Deterministic given ``(law, seed)``: the same seed always yields the same
    trace bit for bit.  ``cap`` bounds the population; a run that would exceed
    it is truncated at the last safe time with ``capped = True`` rather than
    faulting.

    Each nonempty cohort is split across the atoms by one generator call, a
    binomial for two atoms and a multinomial for more: numpy's multinomial is
    sequential binomial splitting that draws nothing once no newborn is left.
    The draws take int64 counts, so a cap above 2^63 - 1 is refused for a law
    with two or more atoms; a single-atom law draws nothing and runs to any
    cap, while its counts stay below 2^1024.  Each cohort is scattered over
    its atoms' nonzero litter ages, and only the draws are kept.

    The loop stays apart from the batch engine: a one-row engine block pays
    numpy call overhead every step, 0.7-1.2 ms per capped scored path of
    horizon 70 against 0.12-0.22 ms here (two to four atoms, 2 vCPU Xeon),
    and simulation is 40-50% of the cost of such a path with its reductions,
    0.27-0.47 ms.
    """
    _require_admissible(law)
    if horizon < 0:
        raise ValueError(f"horizon = {horizon} must be >= 0")
    if cap < 1:
        raise ValueError(f"cap = {cap} must be >= 1")
    atoms = len(law.atoms)
    if atoms > 1 and cap > _DRAW_LIMIT:
        raise ValueError(
            f"cap = {cap} exceeds 2^63 - 1 = {_DRAW_LIMIT}, the int64 limit of the binomial draws that split "
            f"a cohort across {atoms} atoms"
        )
    rng = np.random.default_rng(seed)
    k_max = law.max_age
    probs = np.array([atom.prob for atom in law.atoms])
    first = law.atoms[0].prob
    litters = [[(k, births) for k, births in enumerate(atom.births) if k and births] for atom in law.atoms]

    schedule = [1] + [0] * k_max  # schedule[n] is final, and is B_n, once step n reads it; a slot more each step
    cohort_rows: list[tuple[int, ...]] = []
    empty = (0,) * atoms
    z_run = 0
    for n in range(horizon + 1):
        b_n = schedule[n]
        z_run += b_n
        if z_run > cap:
            break
        if not b_n:
            counts = empty
        elif atoms == 1:
            counts = (b_n,)
        elif atoms == 2:
            drawn = int(rng.binomial(b_n, first))
            counts = (drawn, b_n - drawn)
        else:
            counts = tuple(rng.multinomial(b_n, probs).tolist())
        for c, ages in zip(counts, litters):
            if c:
                for k, births in ages:
                    schedule[n + k] += c * births
        schedule.append(0)
        cohort_rows.append(counts)
    return Trace(
        cohort_atoms=tuple(cohort_rows),
        litters=tuple(atom.births for atom in law.atoms),
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        cap=cap,
        capped=len(cohort_rows) <= horizon,
    )


@dataclass(frozen=True, eq=False)
class _Batch:
    """Replicate paths as int64 arrays, one row per replicate.

    ``B[i, n]`` and ``Z[i, n]`` are exact for every row with ``capped[i]``
    false.  A capped row stops at the step its total is known to exceed the
    cap: its later births are zero.  Births past the horizon are never
    formed.  A campaign's innovations come from ``B`` alone
    (:func:`_births_innovations`).
    """

    B: np.ndarray
    Z: np.ndarray
    capped: np.ndarray


def _simulate_blocks(
    law: OffspringLaw,
    horizon: int,
    replicates: int,
    master_seed: int,
    domain: int,
    cap: int = _DEFAULT_CAP,
):
    """Simulate ``replicates`` independent paths to ``horizon`` as int64 count arrays, block by block.

    Replicates come in blocks of ``_BLOCK_SIZE``; block ``b`` draws from
    ``default_rng((master_seed, domain, b, _BLOCK_TAG))`` and always
    simulates all its replicates, so replicate ``i``'s path depends on
    ``(master_seed, domain, i)`` and not on ``replicates``.  Each step splits
    a block's newborns across atoms with one multinomial draw.  A replicate
    is capped exactly when ``Z_horizon > cap``, as in :func:`run`.  Returns
    an iterator of one ``_Batch`` per block, the last cut to ``replicates``;
    a caller that reduces each block before taking the next holds one
    block's births at a time.  Refuses a cap or litter above
    ``_SCREEN_LIMIT``, where the overflow screen cannot certify int64 products.
    """
    _require_admissible(law)
    if horizon < 0:
        raise ValueError(f"horizon = {horizon} must be >= 0")
    if replicates < 1:
        raise ValueError(f"replicates = {replicates} must be >= 1")
    if not 1 <= cap <= _SCREEN_LIMIT:
        raise ValueError(f"cap = {cap} outside [1, 2^62]: the batch engine's int64 overflow screen cannot certify it")
    biggest = max(max(atom.births) for atom in law.atoms)
    if biggest > _SCREEN_LIMIT:
        raise ValueError(f"a litter of {biggest} births exceeds 2^62: the batch engine's int64 overflow screen cannot certify it")
    probs = np.array([atom.prob for atom in law.atoms])
    litters = np.array([atom.births for atom in law.atoms], dtype=np.int64)
    return (
        _simulate_block(
            np.random.default_rng((master_seed, domain, start // _BLOCK_SIZE, _BLOCK_TAG)),
            probs, litters, horizon, cap, min(_BLOCK_SIZE, replicates - start),
        )
        for start in range(0, replicates, _BLOCK_SIZE)
    )


def _simulate_block(rng, probs, litters, horizon: int, cap: int, rows: int) -> _Batch:
    """One block of the batch engine, returned as its first ``rows`` replicates.

    Replicates run along the last axis.  ``committed`` is ``Z_n`` plus the
    births already scheduled up to the horizon: it only grows, and ends at
    ``Z_horizon``, so a replicate whose committed total exceeds the cap is
    certain to cap and freezes.  Before the int64 product of each step, a
    float64 screen freezes every replicate whose new total reaches
    ``_SCREEN_FLOAT``; the other totals stay below 2^63, so no unfrozen
    count can wrap.

    Both tests run only where they can fire.  A step's newborns are part of
    the committed total and each bears at most ``L`` children (the largest
    litter), so no total grows by more than a factor ``1 + L`` in a step:
    while the largest committed total times ``2 (1 + L)`` (a 2x margin for
    float64 rounding) stays below ``_SCREEN_FLOAT`` the screen is skipped,
    and while no committed total exceeds ``cap`` so is the freeze test.
    Once every replicate has frozen nothing is left to draw, and the loop
    stops.
    """
    size = _BLOCK_SIZE
    k_top = litters.shape[1] - 1
    by_age = np.ascontiguousarray(litters.T)
    litter_sums = np.cumsum(litters.astype(float), axis=1)
    growth = 2 * (1 + max(map(sum, litters.tolist())))  # Python ints: a sum of litters near 2^62 would wrap int64
    sched = np.zeros((horizon + 1, size), dtype=np.int64)
    sched[0] = 1
    committed = np.ones(size, dtype=np.int64)
    largest = 1  # the largest committed total
    capped = np.zeros(size, dtype=bool)
    for n in range(horizon):
        counts = rng.multinomial(sched[n], probs)
        top = min(k_top, horizon - n)
        screened = largest * growth >= _SCREEN_FLOAT
        if screened:
            over = committed + counts @ litter_sums[:, top] >= _SCREEN_FLOAT
            screened = over.any()
            if screened:
                counts[over] = 0
        row = by_age[1 : top + 1] @ counts.T
        committed += row.sum(axis=0)
        largest = int(committed.max())
        if screened or largest > cap:
            frozen = (over | (committed > cap)) if screened else committed > cap
            row[:, frozen] = 0
            sched[n + 1 :, frozen] = 0
            capped |= frozen
            committed[frozen] = 0  # a frozen replicate draws nothing more; keep it from freezing again
            if capped.all():
                break
            largest = int(committed.max())
        sched[n + 1 : n + top + 1] += row
    B = sched.T[:rows]
    return _Batch(B=B, Z=np.cumsum(B, axis=1), capped=capped[:rows])


def fluctuations(trace: Trace, m: float, k_min: int, k_max: int) -> np.ndarray:
    """Matrix of prediction errors ``X[n, k - k_min] = Z_{n-k} - m^-k Z_n``.

    Counts before time 0 are zero.  Negative lags look ahead, so rows stop at
    ``horizon + k_min`` when ``k_min < 0``.
    """
    k_min, k_max = int(k_min), int(k_max)
    _require_in("k_min", k_min, -min(trace.horizon, _MAX_LAG), _MAX_LAG)
    _require_in("k_max", k_max, k_min, _MAX_LAG)
    return _prediction_errors(trace.Z_float, m, np.arange(trace.horizon + min(0, k_min) + 1), range(k_min, k_max + 1))


def _prediction_errors(Z: np.ndarray, m: float, t, ks) -> np.ndarray:
    """Prediction errors ``X_{t,k} = Z_{t-k} - m^-k Z_t`` at time ``t`` (an int or an array of times), lag ``k``
    along a trailing axis for each ``k`` in ``ks``.

    Time runs along the last axis of ``Z`` and leading axes index
    replicates; counts before time 0 are zero.  ``m^-k`` is Python's
    power, lag by lag, so no lag's bits depend on the others.
    """
    t = np.asarray(t)[..., None]
    ks = np.arange(ks.start, ks.stop, ks.step) if isinstance(ks, range) else np.asarray(ks, dtype=int)
    back = t - ks
    past = np.where(back >= 0, Z[..., np.maximum(back, 0)], 0.0)
    m = float(m)
    return past - np.array([m ** -k for k in ks.tolist()]) * Z[..., t]


def innovations(trace: Trace, moments) -> np.ndarray:
    """Reproduction innovations ``W_n = B_n - sum_k mu_k B_{n-k}``, with ``W_0 = B_0 = 1``, from ``trace.B_float``."""
    return _births_innovations(trace.B_float, moments.mu)


def _births_innovations(B: np.ndarray, mu) -> np.ndarray:
    """Innovations ``W_n = B_n - sum_k mu_k B_{n-k}`` from births ``B[..., n]``, subtracted in increasing ``k``.

    Leading axes index replicates; ``W_0 = B_0``.
    """
    W = B.copy()
    for k in range(1, len(mu)):
        W[..., k:] -= mu[k] * B[..., :-k]
    return W


def char_total(trace: Trace, law: OffspringLaw) -> np.ndarray:
    """Total characteristic score ``Z^phi_n`` of the population at each time.

    Cohort ``c`` contributes its summed score at age ``n - c``; beyond the
    table the score is frozen (extending characteristic) or zero.

    A few array passes, O((atoms + K_phi) n) in C: the cohort score matrix is
    summed atom by atom from zeros, then the totals accumulate along its age
    diagonals in increasing age and the frozen tail by a sequential cumsum:
    the order of a per-cohort loop, so the totals are bit-identical to it.
    """
    if not law.has_char:
        raise ValueError("law carries no characteristic")
    k_phi = law.char_max_age
    size = trace.horizon + 1
    counts = np.asarray(trace.cohort_atoms, dtype=float)
    scores = np.zeros((size, k_phi + 1))  # scores[c, age]: summed score of cohort c at that age
    for a, atom in enumerate(law.atoms):
        scores += counts[:, a, None] * np.asarray(atom.char_values)
    totals = np.zeros(size)
    for age in range(min(k_phi, size - 1) + 1):
        totals[age:] += scores[: size - age, age]
    if law.char_extends and size > k_phi + 1:
        totals[k_phi + 1 :] += np.cumsum(scores[: size - k_phi - 1, k_phi])
    return totals


@dataclass(frozen=True, eq=False)
class UEstimate:
    """Partial-sum estimate of one oscillation coefficient.

    ``value`` is the profile coefficient ``-(gamma (gamma - 1) mu_hat'(gamma))^-1
    sum_{k=0}^{n0} gamma^k W_k``; it includes the deterministic seed ``W_0 = 1``
    and is what the oscillation profile tracks.  ``centered`` drops that seed
    term and has exact mean zero across replicates (the remaining innovations
    are martingale differences), so unbiasedness checks must use it.
    ``tail_scale = (gamma_* sqrt(m))^n0`` indicates the size of the neglected
    tail relative to the (already convergent) partial sum.
    """

    value: complex
    centered: complex
    tail_scale: float
    root: complex
    n0: int


def estimate_U(trace: Trace, moments, report: SpectralReport, gamma_i: complex, n0: int) -> UEstimate:
    """Estimate the oscillation coefficient attached to critical root ``gamma_i``.

    Refused (RefusalError) outside regime III and on a non-simple critical
    root, as ``limits.oscillation_profile`` is; faults (ValueError) on a root
    not among the critical ones and on an ``n0`` outside ``[0, horizon]``.
    """
    _require_oscillating(report)
    g = complex(gamma_i)
    match = min(report.gamma_crit, key=lambda r: abs(r - g))
    if abs(match - g) > 1e-8 * max(1.0, abs(g)):
        raise ValueError(f"gamma_i = {g!r} is not a critical root of this law")
    g = complex(match)
    _require_in("n0", n0, 0, trace.horizon)
    W = _births_innovations(trace.B_float[: n0 + 1], moments.mu)
    value, centered = _coefficient_estimates(W, moments.mu, g, n0)
    return UEstimate(
        value=complex(value),
        centered=complex(centered),
        tail_scale=(report.gamma_star * math.sqrt(report.m)) ** n0,
        root=g,
        n0=int(n0),
    )


def _coefficient_estimates(W: np.ndarray, mu, g: complex, n0: int):
    """``(value, centered)`` of the coefficient at root ``g`` from innovations ``W[..., :n0 + 1]``.

    Leading axes of ``W`` index replicates; ``centered`` drops the seed term ``W_0``.
    """
    partial = np.sum(g ** np.arange(n0 + 1) * W[..., : n0 + 1], axis=-1)
    scale = -1.0 / (g * (g - 1.0) * _polyval(_poly_deriv(mu), g))
    return scale * partial, scale * (partial - W[..., 0])


def martingale_qv(trace: Trace, moments, a: dict[int, float], n: int) -> float:
    """Conditional quadratic variation ``V_n`` of the count martingale for ``a``.

    ``V_n = sum_{l=0}^n B_{n-l} q_l`` with ``q_l = sum_{i,j=1}^{min(l,K)} sigma_ij alpha_{l-i} alpha_{l-j}`` and
    ``alpha_s = <T^s v, a>``, the pairing of the s-th operator iterate of the forcing window against ``a``.
    ``V_n / Z_n`` converges to the epoch-series variance along a.s. every path.  The iterates are read from the
    moment table's orbit store (:func:`~cmjfluct.spectral._orbit`), built once per law, and each pairing sums
    them in the order of ``a``; the forms are one einsum and their weighted sum one cumsum in increasing ``l``,
    as a running sum adds them: O(n (K^2 + len(a))) in C per call.  The first non-finite partial sum raises
    ``RuntimeError`` naming its epoch.  The windows have no negative components (see :func:`fluctuations`).
    """
    _require_in("n", n, 0, trace.horizon)
    a = {int(k): float(c) for k, c in a.items() if c != 0.0}
    for lag in a:
        _require_in("lag", lag, 0, _MAX_LAG)
    if not a or n == 0:
        return 0.0
    k_top = len(moments.mu) - 1
    rows = _orbit(moments, n - 1, max(k_top, max(a)))
    alphas = np.zeros(k_top + n)  # alpha_s sits at k_top + s; the zeros stand for s < 0
    for k, c in a.items():
        alphas[k_top:] += c * rows[:, k]
    windows = alphas[k_top + np.arange(1, n + 1)[:, None] - np.arange(1, k_top + 1)]
    # near the regime boundary the forms overflow; the sum raises at that epoch instead
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.einsum("li,ij,lj->l", windows, moments.sigma[1:, 1:], windows)
        partial = np.cumsum(trace.B_float[n - 1 :: -1] * forms)
    bad = np.flatnonzero(~np.isfinite(partial))
    if bad.size:
        total, ell = float(partial[bad[0]]), int(bad[0]) + 1
        raise RuntimeError(f"quadratic variation partial sum is {total!r} at epoch {ell}: the forms overflow float64")
    return float(partial[-1]) + 0.0  # a running sum from 0.0 never ends at -0.0


def verify_recursion(trace: Trace, moments, m: float, n_small: int, trunc: int) -> float:
    """Max relative residual of ``X_n = -sum_{k<=n} W_{n-k} T^k(v)`` for ``n <= n_small``.

    The identity is exact pathwise at the law's growth factor, and only
    there: ``m`` forms ``X``, while the iterates are a slice of the moment
    table's orbit store (:func:`~cmjfluct.spectral._orbit`), built once per
    law at ``moments.growth``.  At that ``m`` the returned residual measures
    float rounding only and is the statistic a verification harness
    thresholds.  Compared over window components ``k <= trunc - n_small``.
    Every term ``W_{n-k} T^k v`` is formed in one product from the
    innovations ``W_0..W_{n_small}``, the terms with ``k > n`` are masked
    out, and each row's terms are summed in increasing ``k``; the negated sum
    equals a per-row running subtraction bit for bit: O(n_small^2 trunc) in C.
    ``n_small`` is at most 20, for cost, and ``trunc`` lies in ``[K + n_small, K + _MAX_LAG]``.
    """
    k_top = len(moments.mu) - 1
    _require_in("n_small", n_small, 0, min(20, trace.horizon))
    _require_in("trunc", trunc, k_top + n_small, k_top + _MAX_LAG)
    W = _births_innovations(trace.B_float[: n_small + 1], moments.mu)
    iterates = _orbit(moments, n_small, trunc)
    k_cmp = trunc - n_small
    lag = np.arange(n_small + 1)[:, None] - np.arange(n_small + 1)  # lag[n, k] = n - k
    terms = W[np.maximum(lag, 0), None] * iterates[:, : k_cmp + 1]  # terms[n, k] = W_{n-k} T^k v
    # where, not a product with a 0/1 mask: an iterate past float64 would make 0 * inf a nan
    rhs = -np.where(lag[:, :, None] >= 0, terms, 0.0).sum(axis=1)
    X = _prediction_errors(trace.Z_float[: n_small + 1], m, np.arange(n_small + 1), range(k_cmp + 1))
    return float(np.max(np.abs(X - rhs) / np.maximum(1.0, np.abs(X))))


def expected_counts(law: OffspringLaw, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean birth counts ``E B_n``, the Taylor coefficients of ``1 / (1 - mu_hat(z))``, and totals ``E Z_n`` up to
    ``horizon``; a count past float64 faults (RuntimeError), naming the first ``n`` at which each leaves it.  The
    division stops at the first ``E B_n`` past float64, so a fault costs its ``n`` steps, not the horizon's."""
    _require_in("horizon", horizon, 0, math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        b = _series_ratio([1.0], np.concatenate(([1.0], -moments(law).mu[1:])), horizon + 1)
        z = np.cumsum(b)
    past = [f"E {name}_n at n = {np.argmin(np.isfinite(v))}" for name, v in zip("BZ", (b, z)) if not np.isfinite(v[-1])]
    if past:
        raise RuntimeError(f"expected counts left float64: {' and '.join(past)}")
    return b, z


def _csv_cell(value) -> str:
    """One CSV cell: bools lowercase, floats to 17 significant digits, the rest as ``str``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(header, rows) -> str:
    """CSV text: the header line, then one line of formatted cells per row."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def trace_csv(trace: Trace, law: OffspringLaw) -> str:
    """Serialize a trace to CSV with the law hash, seed, and cap in the header."""
    ages = tuple(zip(*trace.litters))[1:]  # ages[k - 1][a]: the children atom a bears at age k
    cols = ["n", "B", "Z"] + [f"B_k{k}" for k in range(1, len(ages) + 1)]
    rows = [[n, b, z, *(sum(map(mul, counts, age)) for age in ages)]
            for n, (b, z, counts) in enumerate(zip(trace.B, trace.Z, trace.cohort_atoms))]
    if law.has_char:
        cols.append("Zphi")
        totals = char_total(trace, law)
        for n, row in enumerate(rows):
            row.append(totals[n])
    provenance = [
        f"# law = {law_fingerprint(law)}",
        f"# seed = {trace.seed!r}",
        f"# cap = {trace.cap}",
        f"# capped = {str(trace.capped).lower()}",
    ]
    return "\n".join(provenance) + "\n" + _csv_text(cols, rows)
