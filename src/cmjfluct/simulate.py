"""Exact cohort-aggregated simulation of the lattice branching process.

Individuals born at the same time are exchangeable, so a path is fully
described by how many newborns of each cohort realized each litter atom.  One
time step costs O(#atoms) regardless of population size: the B_n newborns are
split across atoms by an exact multinomial draw (sequential binomial
splitting), and future births accumulate as integer counts.  All counts are
Python integers, so every pathwise identity below holds exactly until the
configured cap truncates the run.

The module also extracts every path functional the limit theorems refer to:
prediction errors X_{n,k} = Z_{n-k} - m^-k Z_n, reproduction innovations
W_{n,k} and W_n, scored characteristic totals, oscillation-coefficient
estimates, and the conditional quadratic variation of the count martingale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .limits import _epoch_forms
from .offspring import (
    OffspringLaw,
    _poly_deriv,
    _polyval,
    _require_admissible,
    char_moments,
    law_fingerprint,
    moments,
)
from .spectral import SpectralReport, _apply_T_mu, _growth_from_mu, malthusian, vector_v

__all__ = [
    "Trace",
    "UEstimate",
    "run",
    "fluctuations",
    "innovations",
    "char_total",
    "char_decomposition_residual",
    "estimate_U",
    "martingale_qv",
    "verify_recursion",
    "expected_counts",
    "trace_csv",
]

#: Population cap of a run unless the caller sets one.
_DEFAULT_CAP = 1 << 62

#: Replicates per block of the batch engine; every block simulates all of them.
_BLOCK_SIZE = 200
#: Last word of every block seed, so no block seed equals a ``run()`` seed ``(master_seed, domain, i)``.
_BLOCK_TAG = 0x626C6B
#: Largest cap (and litter size) the batch engine's float64 overflow screen can certify.
_SCREEN_LIMIT = 1 << 62
#: A float64 total at or above this exceeds every admissible cap, even after rounding.
_SCREEN_FLOAT = 1.5 * _SCREEN_LIMIT
#: How campaign replicates are drawn; campaign reports carry it.
_RNG_SCHEME = f"PCG64 block multinomial, {_BLOCK_SIZE} replicates per block"


@dataclass(frozen=True, eq=False)
class Trace:
    """One exact population path, aggregated by birth cohort.

    ``B[n]`` newborns arrive at time ``n`` (``B[0] = 1``), ``Z[n]`` is the
    running total, ``cohort_atoms[n]`` counts how many of the ``B[n]``
    newborns realized each atom, and ``Bnk[n][k]`` is the number of children
    cohort ``n`` bears at time ``n + k`` (index 0 unused).  Every field is
    an integer count; scored totals are derived from ``cohort_atoms`` (see
    :func:`char_total`).  If the population would have exceeded ``cap``, the
    trace ends at the last safe time and ``capped`` is set.
    """

    horizon: int
    B: tuple[int, ...]
    Z: tuple[int, ...]
    cohort_atoms: tuple[tuple[int, ...], ...]
    Bnk: tuple[tuple[int, ...], ...]
    seed: object
    cap: int
    capped: bool


def _split_counts(rng: np.random.Generator, total: int, probs) -> list[int]:
    """Assign ``total`` newborns to atoms: exact multinomial via binomial splitting."""
    if len(probs) == 1:
        return [total]
    if len(probs) == 2:
        first = int(rng.binomial(total, probs[0]))
        return [first, total - first]
    counts: list[int] = []
    remaining = total
    mass_left = 1.0
    for p in probs[:-1]:
        ratio = 1.0 if mass_left <= p else p / mass_left
        drawn = int(rng.binomial(remaining, ratio))
        counts.append(drawn)
        remaining -= drawn
        mass_left -= p
    counts.append(remaining)
    return counts


def run(law: OffspringLaw, horizon: int, seed, cap: int = _DEFAULT_CAP) -> Trace:
    """Simulate one path started from a single individual born at time 0.

    Deterministic given ``(law, seed)``: the same seed always yields the same
    trace bit for bit.  ``cap`` bounds the population; a run that would exceed
    it is truncated at the last safe time with ``capped = True`` rather than
    faulting.
    """
    _require_admissible(law)
    if horizon < 0:
        raise ValueError(f"horizon = {horizon} must be >= 0")
    if cap < 1:
        raise ValueError(f"cap = {cap} must be >= 1")
    rng = np.random.default_rng(seed)
    k_max = law.max_age
    probs = [atom.prob for atom in law.atoms]
    litters = [atom.births for atom in law.atoms]

    schedule = [0] * (horizon + k_max + 2)
    schedule[0] = 1
    b_list: list[int] = []
    z_list: list[int] = []
    cohort_rows: list[tuple[int, ...]] = []
    bnk_rows: list[tuple[int, ...]] = []
    z_run = 0
    capped = False
    for n in range(horizon + 1):
        b_n = schedule[n]
        if z_run + b_n > cap:
            capped = True
            break
        z_run += b_n
        counts = _split_counts(rng, b_n, probs) if b_n > 0 else [0] * len(probs)
        row = [0] * (k_max + 1)
        for idx, c in enumerate(counts):
            if c:
                births = litters[idx]
                for k in range(1, k_max + 1):
                    row[k] += c * births[k]
        for k in range(1, k_max + 1):
            if row[k]:
                schedule[n + k] += row[k]
        b_list.append(b_n)
        z_list.append(z_run)
        cohort_rows.append(tuple(counts))
        bnk_rows.append(tuple(row))
    return Trace(
        horizon=len(b_list) - 1,
        B=tuple(b_list),
        Z=tuple(z_list),
        cohort_atoms=tuple(cohort_rows),
        Bnk=tuple(bnk_rows),
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        cap=cap,
        capped=capped,
    )


@dataclass(frozen=True, eq=False)
class _Batch:
    """Replicate paths as int64 arrays, one row per replicate.

    ``B[i, n]`` and ``Z[i, n]`` are exact for every row with ``capped[i]``
    false.  A capped row stops at the step its total is known to exceed the
    cap: its later births are zero.  ``Bnk[i, n, k]`` (only when requested)
    counts the children cohort ``n`` bears at ``n + k <= horizon``; births
    past the horizon are never formed.
    """

    B: np.ndarray
    Z: np.ndarray
    capped: np.ndarray
    Bnk: np.ndarray | None


def _simulate_blocks(
    law: OffspringLaw,
    horizon: int,
    replicates: int,
    master_seed: int,
    domain: int,
    cap: int = _DEFAULT_CAP,
    cohorts: bool = False,
):
    """Simulate ``replicates`` independent paths to ``horizon`` as int64 cohort arrays, block by block.

    Replicates come in blocks of ``_BLOCK_SIZE``; block ``b`` draws from
    ``default_rng((master_seed, domain, b, _BLOCK_TAG))`` and always
    simulates all its replicates, so replicate ``i``'s path depends on
    ``(master_seed, domain, i)`` and not on ``replicates``.  Each step splits
    a block's newborns across atoms with one multinomial draw.  A replicate
    is capped exactly when ``Z_horizon > cap``, as in :func:`run`.  Returns
    an iterator of one ``_Batch`` per block, the last cut to ``replicates``;
    a caller that reduces each block before taking the next holds one
    block's cohort matrix at a time.  Refuses a cap or litter above
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
            probs, litters, horizon, cap, cohorts, min(_BLOCK_SIZE, replicates - start),
        )
        for start in range(0, replicates, _BLOCK_SIZE)
    )


def _simulate_block(rng, probs, litters, horizon: int, cap: int, cohorts: bool, rows: int) -> _Batch:
    """One block of the batch engine, returned as its first ``rows`` replicates.

    Replicates run along the last axis.  ``committed`` is ``Z_n`` plus the
    births already scheduled up to the horizon: it only grows, and ends at
    ``Z_horizon``, so a replicate whose committed total exceeds the cap is
    certain to cap and freezes.  Before the int64 product of each step, a
    float64 screen freezes every replicate whose new total reaches
    ``_SCREEN_FLOAT``; the other totals stay below 2^63, so no unfrozen
    count can wrap.
    """
    size = _BLOCK_SIZE
    k_top = litters.shape[1] - 1
    by_age = np.ascontiguousarray(litters.T)
    litter_sums = np.cumsum(litters.astype(float), axis=1)
    sched = np.zeros((horizon + 1, size), dtype=np.int64)
    sched[0] = 1
    Bnk = np.zeros((horizon + 1, k_top + 1, size), dtype=np.int64) if cohorts else None
    committed = np.ones(size, dtype=np.int64)
    capped = np.zeros(size, dtype=bool)
    for n in range(horizon):
        counts = rng.multinomial(sched[n], probs)
        top = min(k_top, horizon - n)
        over = committed + counts @ litter_sums[:, top] >= _SCREEN_FLOAT
        if over.any():
            counts[over] = 0
        row = by_age[1 : top + 1] @ counts.T
        committed += row.sum(axis=0)
        frozen = over | (committed > cap)
        if frozen.any():
            row[:, frozen] = 0
            sched[n + 1 :, frozen] = 0
            capped |= frozen
            committed[frozen] = 0  # a frozen replicate draws nothing more; keep it from freezing again
        sched[n + 1 : n + top + 1] += row
        if cohorts:
            Bnk[n, 1 : top + 1] = row
    B = sched.T[:rows]
    return _Batch(B=B, Z=np.cumsum(B, axis=1), capped=capped[:rows], Bnk=None if Bnk is None else np.moveaxis(Bnk, -1, 0)[:rows])


def fluctuations(trace: Trace, m: float, k_min: int, k_max: int) -> np.ndarray:
    """Matrix of prediction errors ``X[n, k - k_min] = Z_{n-k} - m^-k Z_n``.

    Counts before time 0 are zero.  Negative lags look ahead, so rows stop at
    ``horizon + k_min`` when ``k_min < 0``; faults if no row remains.
    """
    k_min, k_max = int(k_min), int(k_max)
    if k_max < k_min:
        raise ValueError(f"empty lag range [{k_min}, {k_max}]")
    n_last = trace.horizon + min(0, k_min)
    if n_last < 0:
        raise ValueError(f"lag {k_min} reaches beyond the trace horizon {trace.horizon}")
    Z = np.asarray(trace.Z, dtype=float)
    times = np.arange(n_last + 1)
    return np.column_stack([_prediction_errors(Z, m, times, k) for k in range(k_min, k_max + 1)])


def _prediction_errors(Z: np.ndarray, m: float, t, k: int) -> np.ndarray:
    """Prediction errors ``X_{t,k} = Z_{t-k} - m^-k Z_t`` at time ``t`` (an int or an array of times).

    Time runs along the last axis of ``Z`` and leading axes index
    replicates; counts before time 0 are zero.
    """
    t = np.asarray(t)
    past = np.where(t >= k, Z[..., np.maximum(t - k, 0)], 0.0)
    return past - float(m) ** (-k) * Z[..., t]


def innovations(trace: Trace, moments) -> tuple[np.ndarray, np.ndarray]:
    """Reproduction innovations ``W_n`` and ``W_{n,k} = B_{n,k} - mu_k B_n``.

    ``W_0 = B_0 = 1`` seeds the recursion; for ``n >= 1``,
    ``W_n = B_n - sum_k mu_k B_{n-k}``.  The pathwise identity
    ``W_n = sum_k W_{n-k,k}`` is re-derived from the stored cohort matrix and
    a violation beyond 1e-9 relative faults (it would mean the trace is
    internally inconsistent).
    """
    return _innovation_arrays(np.asarray(trace.B, dtype=float), np.asarray(trace.Bnk, dtype=float), moments.mu)


def _innovation_arrays(B: np.ndarray, Bnk: np.ndarray, mu, replicates=None) -> tuple[np.ndarray, np.ndarray]:
    """``W`` and ``W_{n,k}`` from births ``B[..., n]`` and cohort births ``Bnk[..., n, k]``.

    Leading axes index replicates.  Each ``W_n`` subtracts ``mu_k B_{n-k}``
    in increasing ``k``, and a violation of ``W_n = sum_k W_{n-k,k}`` beyond
    1e-9 relative faults, naming the first offending time and replicate
    (``replicates[i]`` for row ``i`` when given).
    """
    k_top = len(mu) - 1
    W = B.copy()
    for k in range(1, k_top + 1):
        W[..., k:] -= mu[k] * B[..., :-k]
    Wnk = Bnk - mu * B[..., None]
    Wnk[..., 0] = 0.0
    total = np.zeros_like(W)
    for k in range(1, k_top + 1):
        total[..., k:] += Wnk[..., :-k, k]
    bad = np.abs(W - total) > 1e-9 * np.maximum(1.0, np.maximum(np.abs(W), np.abs(total)))
    bad[..., 0] = False
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        replicate = f" of replicate {where[0] if replicates is None else replicates[where[0]]}" if len(where) > 1 else ""
        raise RuntimeError(
            f"innovation identity violated at n = {where[-1]}{replicate}: {float(W[where])!r} vs {float(total[where])!r}"
        )
    return W, Wnk


def _char_scores(trace: Trace, law: OffspringLaw) -> tuple[np.ndarray, float]:
    """Scored totals ``Z^phi_n`` and the max relative residual of their decomposition.

    A few array passes, O((atoms + K_phi + len(delta)) n) in C: the cohort
    score matrix is summed atom by atom from zeros, then the totals and the
    decomposition ``Z^phi_n - lambda^phi Z_n = Zbar^phi_n + <X_n, dlambda>``
    accumulate along its age diagonals in increasing age, the frozen tails by
    a sequential cumsum and ``<X_n, dlambda>`` in increasing lag: the order of
    a per-cohort loop, so the results are bit-identical to it.
    """
    if not law.has_char:
        raise ValueError("law carries no characteristic")
    m = malthusian(law)
    cm = char_moments(law, m)
    k_phi = law.char_max_age
    size = trace.horizon + 1
    Z = np.asarray(trace.Z, dtype=float)
    counts = np.asarray(trace.cohort_atoms, dtype=float)
    scores = np.zeros((size, k_phi + 1))  # scores[c, age]: summed score of cohort c at that age
    for a, atom in enumerate(law.atoms):
        scores += counts[:, a, None] * np.asarray(atom.char_values)
    centered = scores - cm.lambda_phi * np.asarray(trace.B, dtype=float)[:, None]
    totals, zbar = np.zeros(size), np.zeros(size)
    for age in range(min(k_phi, size - 1) + 1):
        totals[age:] += scores[: size - age, age]
        zbar[age:] += centered[: size - age, age]
    if law.char_extends and size > k_phi + 1:
        totals[k_phi + 1 :] += np.cumsum(scores[: size - k_phi - 1, k_phi])
        zbar[k_phi + 1 :] += np.cumsum(centered[: size - k_phi - 1, k_phi])
    lag_dot = np.zeros(size)
    for k, d in enumerate(cm.delta_lambda):
        lag_dot += d * _prediction_errors(Z, m, np.arange(size), k)
    lhs = totals - cm.lambda_scalar * Z
    resid = np.abs(lhs - (zbar + lag_dot)) / np.maximum(1.0, np.abs(lhs))
    return totals, float(np.fmax.reduce(resid, initial=0.0))  # fmax skips NaN, as a running max() does


def char_total(trace: Trace, law: OffspringLaw) -> np.ndarray:
    """Total characteristic score ``Z^phi_n`` of the population at each time.

    Cohort ``c`` contributes its summed score at age ``n - c``; beyond the
    table the score is frozen (extending characteristic) or zero.  Before
    returning, the exact decomposition of the total into its mean part, the
    centered scores, and the lag-weighted prediction errors is re-checked to
    1e-9 relative and a violation faults.
    """
    totals, worst = _char_scores(trace, law)
    if worst > 1e-9:
        raise RuntimeError(f"characteristic decomposition violated: max relative residual {float(worst)!r}")
    return totals


def char_decomposition_residual(trace: Trace, law: OffspringLaw) -> float:
    """Max relative residual of ``Z^phi_n - lambda^phi Z_n = Zbar^phi_n + <X_n, dlambda>``.

    An exact pathwise identity (the increment vector telescopes the mean
    scores onto past counts), so the residual only measures float rounding.
    """
    return _char_scores(trace, law)[1]


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

    Faults outside regime III, on a root not among the critical ones, on a
    non-simple critical root, and when ``n0`` exceeds the trace horizon.
    """
    if report.regime != "III":
        raise ValueError(f"regime {report.regime}: oscillation coefficients exist only in regime III")
    if report.non_simple:
        raise ValueError("non-simple critical root: the oscillation expansion does not apply")
    g = complex(gamma_i)
    match = min(report.gamma_crit, key=lambda r: abs(r - g))
    if abs(match - g) > 1e-8 * max(1.0, abs(g)):
        raise ValueError(f"gamma_i = {g!r} is not a critical root of this law")
    g = complex(match)
    if not 0 <= n0 <= trace.horizon:
        raise ValueError(f"n0 = {n0} outside trace horizon {trace.horizon}")
    W, _ = innovations(trace, moments)
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

    ``V_n = sum_{l=0}^n B_{n-l} sum_{i,j=1}^l sigma_ij alpha_{l-i} alpha_{l-j}``
    with ``alpha_k`` the pairing of the k-th operator iterate against ``a``.
    ``V_n / Z_n`` converges to the epoch-series variance along a.s. every path.
    The first ``n`` forms of :func:`_epoch_forms` are weighted and summed by
    one cumsum in increasing ``l``, as a running sum adds them: O(n K^2) in C.
    Like the epoch series, the first non-finite partial sum raises
    ``RuntimeError`` naming its epoch.
    """
    if not 0 <= n <= trace.horizon:
        raise ValueError(f"n = {n} outside trace horizon {trace.horizon}")
    a = {int(k): float(c) for k, c in a.items() if c != 0.0}
    if any(k < 0 for k in a):
        raise ValueError("negative lags have no window components; see fluctuations()")
    if not a or n == 0:
        return 0.0
    m = _growth_from_mu(moments.mu)
    blocks = []
    for block in _epoch_forms(moments, m, a):
        blocks.append(block)
        if sum(map(len, blocks)) >= n:
            break
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(np.asarray(trace.B[n - 1 :: -1], dtype=float) * np.concatenate(blocks)[:n])
    bad = np.flatnonzero(~np.isfinite(partial))
    if bad.size:
        total, ell = float(partial[bad[0]]), int(bad[0]) + 1
        raise RuntimeError(f"quadratic variation partial sum is {total!r} at epoch {ell}: the forms overflow float64")
    return float(partial[-1]) + 0.0  # a running sum from 0.0 never ends at -0.0


def verify_recursion(trace: Trace, moments, m: float, n_small: int, trunc: int) -> float:
    """Max relative residual of ``X_n = -sum_{k<=n} W_{n-k} T^k(v)`` for ``n <= n_small``.

    The identity is exact pathwise; the returned residual measures float
    rounding only and is the statistic a verification harness thresholds.
    Compared over window components ``k <= trunc - n_small``.  All rows
    accumulate together, one array pass per iterate ``T^k v`` in increasing
    ``k`` as a per-row running sum does, so bit-identical to it: O(n_small^2
    trunc) in C beyond the whole trace's innovations (their check still runs).
    """
    k_top = len(moments.mu) - 1
    if n_small > 20:
        raise ValueError("n_small capped at 20 (cost control)")
    if n_small > trace.horizon:
        raise ValueError(f"n_small = {n_small} exceeds trace horizon {trace.horizon}")
    if trunc < k_top + n_small:
        raise ValueError(f"trunc = {trunc} too small: need at least K + n_small = {k_top + n_small}")
    W, _ = innovations(trace, moments)
    iterates = [vector_v(m, trunc)]
    for _ in range(n_small):
        iterates.append(_apply_T_mu(moments.mu, m, iterates[-1]))
    k_cmp = trunc - n_small
    rhs = np.zeros((n_small + 1, k_cmp + 1))
    for k, iterate in enumerate(iterates):  # row n subtracts W_{n-k} T^k v in increasing k
        rhs[k:] -= W[: n_small + 1 - k, None] * iterate[: k_cmp + 1]
    Z = np.asarray(trace.Z[: n_small + 1], dtype=float)
    X = np.column_stack([_prediction_errors(Z, m, np.arange(n_small + 1), k) for k in range(k_cmp + 1)])
    return float(np.max(np.abs(X - rhs) / np.maximum(1.0, np.abs(X))))


def expected_counts(law: OffspringLaw, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean birth counts ``E B_n`` and totals ``E Z_n`` up to ``horizon``."""
    mu = moments(law).mu
    k_top = len(mu) - 1
    b = np.zeros(horizon + 1)
    b[0] = 1.0
    for n in range(1, horizon + 1):
        b[n] = float(sum(mu[k] * b[n - k] for k in range(1, min(n, k_top) + 1)))
    return b, np.cumsum(b)


def trace_csv(trace: Trace, law: OffspringLaw) -> str:
    """Serialize a trace to CSV with the law hash, seed, and cap in the header."""
    k_top = law.max_age
    lines = [
        f"# law = {law_fingerprint(law)}",
        f"# seed = {trace.seed!r}",
        f"# cap = {trace.cap}",
        f"# capped = {str(trace.capped).lower()}",
    ]
    cols = ["n", "B", "Z"] + [f"B_k{k}" for k in range(1, k_top + 1)]
    totals = None
    if law.has_char:
        totals = char_total(trace, law)
        cols.append("Zphi")
    lines.append(",".join(cols))
    for n in range(trace.horizon + 1):
        cells = [str(n), str(trace.B[n]), str(trace.Z[n])]
        cells.extend(str(trace.Bnk[n][k]) for k in range(1, k_top + 1))
        if totals is not None:
            cells.append(format(totals[n], ".17g"))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
