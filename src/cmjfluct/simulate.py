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
Each trace converts its counts to float64 once and keeps one innovations pass
per moment table, and every functional reads those.  The pathwise identities
the innovations and the scored totals rest on reduce to statements about the
counts alone, so they are checked exactly on the Python integers, with no
tolerance: a trace with one count off faults, naming the time it is off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add

import numpy as np

from .offspring import (
    OffspringLaw,
    _poly_deriv,
    _polyval,
    _require_admissible,
    law_fingerprint,
    moments,
)
from .spectral import _MAX_LAG, SpectralReport, _orbit

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
#: Largest cohort numpy's binomial draw accepts: ``run()`` refuses a larger cap on a law with two or more atoms.
_DRAW_LIMIT = (1 << 63) - 1

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

    The per-trace functionals read the counts through one float64 view
    (``_floats``, each field converted on first read) and :func:`innovations`
    keeps its arrays per moment table (``_innovations``).  Both are built
    once per trace and their arrays are read-only; a copy made by
    ``dataclasses.replace`` starts with both empty.  The identity checks read
    the integer fields themselves.
    """

    horizon: int
    B: tuple[int, ...]
    Z: tuple[int, ...]
    cohort_atoms: tuple[tuple[int, ...], ...]
    Bnk: tuple[tuple[int, ...], ...]
    seed: object
    cap: int
    capped: bool
    # plain fields rather than cached properties, whose first read takes a lock in Python 3.11 (2 us on a 2 vCPU Xeon)
    _floats: dict = field(default_factory=dict, init=False, repr=False)  # field name -> array, see _as_floats
    _innovations: dict = field(default_factory=dict, init=False, repr=False)  # id(table) -> (table, (W, Wnk))


def _as_floats(trace: Trace, name: str) -> np.ndarray:
    """The count field ``name`` of ``trace`` as a read-only float64 array, converted on first read and kept."""
    array = trace._floats.get(name)
    if array is None:
        array = trace._floats[name] = np.asarray(getattr(trace, name), dtype=float)
        array.flags.writeable = False
    return array


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

    A law with two or more atoms splits each cohort by binomial draws, which
    take int64 counts, so a cap above 2^63 - 1 is refused for it; a
    single-atom law draws nothing and runs to any cap.  Each cohort is
    scattered over its atoms' nonzero litter ages only.

    The loop stays apart from the batch engine: a one-row engine block pays
    numpy call overhead every step, about 1.5 ms per capped scored path of
    horizon 70 against 0.18-0.34 ms here (two to four atoms, 2 vCPU Xeon),
    and simulation is about half of the cost of such a path with its
    reductions, 0.45 ms at the median.
    """
    _require_admissible(law)
    if horizon < 0:
        raise ValueError(f"horizon = {horizon} must be >= 0")
    if cap < 1:
        raise ValueError(f"cap = {cap} must be >= 1")
    probs = [atom.prob for atom in law.atoms]
    if len(probs) > 1 and cap > _DRAW_LIMIT:
        raise ValueError(
            f"cap = {cap} exceeds 2^63 - 1 = {_DRAW_LIMIT}, the int64 limit of the binomial draws that split "
            f"a cohort across {len(probs)} atoms"
        )
    rng = np.random.default_rng(seed)
    k_max = law.max_age
    litters = [[(k, births) for k, births in enumerate(atom.births) if k and births] for atom in law.atoms]

    schedule = [1] + [0] * k_max  # schedule[n] is final, and is B_n, once step n reads it; a slot more each step
    z_list: list[int] = []
    cohort_rows: list[tuple[int, ...]] = []
    bnk_rows: list[tuple[int, ...]] = []
    z_run = 0
    for n in range(horizon + 1):
        b_n = schedule[n]
        z_run += b_n
        if z_run > cap:
            break
        counts = _split_counts(rng, b_n, probs) if b_n > 0 else [0] * len(probs)
        row = [0] * (k_max + 1)
        for c, ages in zip(counts, litters):
            if c:
                for k, births in ages:
                    children = c * births
                    row[k] += children
                    schedule[n + k] += children
        schedule.append(0)
        z_list.append(z_run)
        cohort_rows.append(tuple(counts))
        bnk_rows.append(tuple(row))
    steps = len(z_list)
    return Trace(
        horizon=steps - 1,
        B=tuple(schedule[:steps]),
        Z=tuple(z_list),
        cohort_atoms=tuple(cohort_rows),
        Bnk=tuple(bnk_rows),
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        cap=cap,
        capped=steps <= horizon,
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
    ``horizon + k_min`` when ``k_min < 0``; faults if no row remains.
    """
    k_min, k_max = int(k_min), int(k_max)
    if k_max < k_min:
        raise ValueError(f"empty lag range [{k_min}, {k_max}]")
    n_last = trace.horizon + min(0, k_min)
    if n_last < 0:
        raise ValueError(f"lag {k_min} reaches beyond the trace horizon {trace.horizon}")
    return _prediction_errors(_as_floats(trace, "Z"), m, np.arange(n_last + 1), range(k_min, k_max + 1))


def _prediction_errors(Z: np.ndarray, m: float, t, ks) -> np.ndarray:
    """Prediction errors ``X_{t,k} = Z_{t-k} - m^-k Z_t`` at time ``t`` (an int or an array of times), lag ``k``
    along a trailing axis for each ``k`` in ``ks``.

    Time runs along the last axis of ``Z`` and leading axes index
    replicates; counts before time 0 are zero.  ``m^-k`` is Python's
    power, lag by lag, so no lag's bits depend on the others.
    """
    t, ks = np.asarray(t)[..., None], np.asarray(ks, dtype=int)
    past = np.where(t >= ks, Z[..., np.maximum(t - ks, 0)], 0.0)
    return past - np.array([float(m) ** -int(k) for k in ks]) * Z[..., t]


def innovations(trace: Trace, moments) -> tuple[np.ndarray, np.ndarray]:
    """Reproduction innovations ``W_n`` and ``W_{n,k} = B_{n,k} - mu_k B_n``.

    ``W_0 = B_0 = 1`` seeds the recursion; for ``n >= 1``,
    ``W_n = B_n - sum_k mu_k B_{n-k}``.  The pathwise identity
    ``W_n = sum_k W_{n-k,k}`` holds exactly when every ``B_n`` equals the
    births its earlier cohorts bear at time ``n``, ``sum_k B_{n-k,k}`` (the
    ``mu_k B_{n-k}`` terms cancel), so that is what is checked, exactly on
    the trace's integer counts; the first time it fails faults, naming it.

    The arrays are formed once per trace and moment table: the trace keeps
    the read-only ``(W, Wnk)`` it returns, and every later call with that
    table, :func:`estimate_U` and :func:`verify_recursion` included, returns
    the same arrays.  A trace that fails the check keeps nothing and faults
    again, with the same message, on every call.
    """
    kept = trace._innovations.get(id(moments))
    if kept is None:
        births = trace.B
        ages = tuple(zip(*trace.Bnk))  # ages[k][c]: the births cohort c bears at age k
        born = (0,) + ages[1]  # born[n] = sum_k B_{n-k,k}, summed in increasing k
        for k in range(2, len(ages)):
            born = tuple(map(add, born, (0,) * k + ages[k]))
        if born[1 : len(births)] != births[1:]:
            n = next(n for n in range(1, len(births)) if born[n] != births[n])
            raise RuntimeError(
                f"innovation identity violated at n = {n}: B_n = {births[n]} but earlier cohorts bear {born[n]}"
            )
        B = _as_floats(trace, "B")
        W = _births_innovations(B, moments.mu)
        Wnk = _as_floats(trace, "Bnk") - moments.mu * B[:, None]
        Wnk[:, 0] = 0.0
        W.flags.writeable = Wnk.flags.writeable = False
        kept = trace._innovations[id(moments)] = (moments, (W, Wnk))  # holding the table keeps its id unique
    return kept[1]


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
    table the score is frozen (extending characteristic) or zero.  The
    decomposition of the total into its mean part, the centered scores and
    the lag-weighted prediction errors,
    ``Z^phi_n - lambda^phi Z_n = Zbar^phi_n + <X_n, dlambda>``, holds exactly
    whenever ``Z_n = sum_{c<=n} B_c``: both sides sum the same cohort scores,
    and the increment vector telescopes the mean scores onto past counts.  So
    that is what is checked, exactly on the trace's integer counts, and the
    first time ``Z_n`` differs from that sum faults, naming it.

    A few array passes, O((atoms + K_phi) n) in C: the cohort score matrix is
    summed atom by atom from zeros, then the totals accumulate along its age
    diagonals in increasing age and the frozen tail by a sequential cumsum:
    the order of a per-cohort loop, so the totals are bit-identical to it.
    """
    if not law.has_char:
        raise ValueError("law carries no characteristic")
    running = tuple(accumulate(trace.B))
    if running != trace.Z:
        n = next(n for n, (r, z) in enumerate(zip(running, trace.Z)) if r != z)
        raise RuntimeError(
            f"characteristic decomposition violated at n = {n}: Z_n = {trace.Z[n]} but B_0 + ... + B_n = {running[n]}"
        )
    k_phi = law.char_max_age
    size = trace.horizon + 1
    counts = _as_floats(trace, "cohort_atoms")
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

    ``V_n = sum_{l=0}^n B_{n-l} q_l`` with ``q_l = sum_{i,j=1}^{min(l,K)} sigma_ij alpha_{l-i} alpha_{l-j}`` and
    ``alpha_s = <T^s v, a>``, the pairing of the s-th operator iterate of the forcing window against ``a``.
    ``V_n / Z_n`` converges to the epoch-series variance along a.s. every path.  The iterates are read from the
    moment table's orbit store (:func:`~cmjfluct.spectral._orbit`), built once per law, and each pairing sums
    them in the order of ``a``; the forms are one einsum and their weighted sum one cumsum in increasing ``l``,
    as a running sum adds them: O(n (K^2 + len(a))) in C per call.  The first non-finite partial sum raises
    ``RuntimeError`` naming its epoch.  Lags must lie in ``0..256``.
    """
    if not 0 <= n <= trace.horizon:
        raise ValueError(f"n = {n} outside trace horizon {trace.horizon}")
    a = {int(k): float(c) for k, c in a.items() if c != 0.0}
    if any(k < 0 for k in a):
        raise ValueError("negative lags have no window components; see fluctuations()")
    if a and max(a) > _MAX_LAG:
        raise ValueError(f"lag {max(a)} exceeds {_MAX_LAG}: the windows would grow with it")
    if not a or n == 0:
        return 0.0
    k_top = len(moments.mu) - 1
    rows = _orbit(moments, moments.growth, n - 1, max(k_top, max(a)))
    alphas = np.zeros(k_top + n)  # alpha_s sits at k_top + s; the zeros stand for s < 0
    for k, c in a.items():
        alphas[k_top:] += c * rows[:, k]
    windows = alphas[k_top + np.arange(1, n + 1)[:, None] - np.arange(1, k_top + 1)]
    # near the regime boundary the forms overflow; the sum raises at that epoch instead
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.einsum("li,ij,lj->l", windows, moments.sigma[1:, 1:], windows)
        partial = np.cumsum(_as_floats(trace, "B")[n - 1 :: -1] * forms)
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
    trunc) in C.  The innovations are the trace's own (:func:`innovations`),
    formed once per trace and table, and a trace whose counts fail their
    exact identity check faults here with the same message.
    The iterates are a slice of the moment table's orbit store
    (:func:`~cmjfluct.spectral._orbit`), built once per law and ``m``.
    """
    k_top = len(moments.mu) - 1
    if n_small > 20:
        raise ValueError("n_small capped at 20 (cost control)")
    if n_small > trace.horizon:
        raise ValueError(f"n_small = {n_small} exceeds trace horizon {trace.horizon}")
    if trunc < k_top + n_small:
        raise ValueError(f"trunc = {trunc} too small: need at least K + n_small = {k_top + n_small}")
    W, _ = innovations(trace, moments)
    iterates = _orbit(moments, m, n_small, trunc)
    k_cmp = trunc - n_small
    rhs = np.zeros((n_small + 1, k_cmp + 1))
    for k, iterate in enumerate(iterates):  # row n subtracts W_{n-k} T^k v in increasing k
        rhs[k:] -= W[: n_small + 1 - k, None] * iterate[: k_cmp + 1]
    X = _prediction_errors(_as_floats(trace, "Z")[: n_small + 1], m, np.arange(n_small + 1), range(k_cmp + 1))
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
    k_top = law.max_age
    cols = ["n", "B", "Z"] + [f"B_k{k}" for k in range(1, k_top + 1)]
    rows = [[n, trace.B[n], trace.Z[n], *trace.Bnk[n][1 : k_top + 1]] for n in range(trace.horizon + 1)]
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
