"""``run()`` against a reference copy of the loop it replaced, and the trace's float views and innovations.

``run()`` scatters each cohort over its atoms' nonzero litter ages only and
keeps only its draws; births and totals are derived from them.  The
reference below is the loop it replaced: every cohort walks every age
``1..K`` of every atom, splits its newborns by one binomial call per atom
(the draws ``run()``'s one multinomial call per cohort makes, in the same
order), and keeps its own births, totals and cohort birth matrix, so every
one of them must equal the trace's, capped or not.  The per-trace
functionals read the float64 views of the births and totals made with the
trace; they must be exact and read-only, and a corrupted copy must fault as
often as it is asked.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cmjfluct import make_law
from cmjfluct import simulate as sim
from cmjfluct.offspring import moments
from cmjfluct.spectral import malthusian

_FIELDS = ("horizon", "B", "Z", "cohort_atoms", "seed", "cap", "capped")


def _reference_split(rng, total, probs):
    if len(probs) == 1:
        return [total]
    if len(probs) == 2:
        first = int(rng.binomial(total, probs[0]))
        return [first, total - first]
    counts = []
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


def _reference_run(law, horizon, seed, cap=sim._DEFAULT_CAP):
    rng = np.random.default_rng(seed)
    k_max = law.max_age
    probs = [atom.prob for atom in law.atoms]
    litters = [atom.births for atom in law.atoms]
    schedule = [0] * (horizon + k_max + 2)
    schedule[0] = 1
    b_list, z_list, cohort_rows, bnk_rows = [], [], [], []
    z_run = 0
    capped = False
    for n in range(horizon + 1):
        b_n = schedule[n]
        if z_run + b_n > cap:
            capped = True
            break
        z_run += b_n
        counts = _reference_split(rng, b_n, probs) if b_n > 0 else [0] * len(probs)
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
    return SimpleNamespace(
        horizon=len(b_list) - 1,
        B=tuple(b_list),
        Z=tuple(z_list),
        cohort_atoms=tuple(cohort_rows),
        Bnk=tuple(bnk_rows),
        seed=tuple(seed) if isinstance(seed, (list, tuple)) else seed,
        cap=cap,
        capped=capped,
    )


def _cohort_births(trace):
    """``Bnk[c][k] = sum_a cohort_atoms[c][a] litters[a][k]``: the children cohort ``c`` bears at age ``k``."""
    return tuple(
        tuple(sum(c * litter[k] for c, litter in zip(counts, trace.litters)) for k in range(len(trace.litters[0])))
        for counts in trace.cohort_atoms
    )


def _sparse_k80():
    """Three atoms, each bearing at one or two of the 80 ages."""
    return make_law([(0.3, (1,) + (0,) * 78 + (1,)), (0.5, (2, 0, 0, 1) + (0,) * 76), (0.2, (0, 1) + (0,) * 78)])


#: Laws where one multinomial call per cohort could part from the binomial splitting it replaced: many atoms, a
#: trailing atom of 1e-300 after one whose mass exceeds the rounded mass left (the reference's ``mass_left <= p``
#: clamp), and probabilities 1e-12 short of and past 1 (the most ``make_law`` accepts), each off on the first atom.
_MANY_ATOMS = {
    "five_atoms": [(0.1, (1,)), (0.2, (0, 1)), (0.3, (2,)), (0.25, (1, 1)), (0.15, (0, 0, 2))],
    "eight_atoms": [(0.05, (1,)), (0.1, (0, 2)), (0.15, (1, 0, 1)), (0.2, (2,)), (0.1, (0, 0, 0, 3)),
                    (0.2, (1, 1)), (0.15, (0, 1, 1)), (0.05, (3, 0, 0, 1))],
    "tiny_tail": [(0.3, (1,)), (0.3, (0, 2)), (0.4, (2, 1)), (1e-300, (0, 0, 5))],
    "sum_below_one": [(0.25 - 1e-12, (1,)), (0.25, (2,)), (0.25, (0, 3)), (0.25, (1, 1))],
    "sum_above_one": [(0.25 + 0.9999e-12, (1,)), (0.25, (2,)), (0.25, (0, 3)), (0.25, (1, 1))],
}


@pytest.mark.parametrize("name", ["one_atom", "two_atoms", "four_atoms", "sparse_k80", *_MANY_ATOMS])
def test_run_matches_reference_loop_field_for_field(name, law_i, gw13_coin, det_two_age):
    law = {"one_atom": det_two_age, "two_atoms": law_i, "four_atoms": gw13_coin, "sparse_k80": _sparse_k80(),
           **{key: make_law(spec) for key, spec in _MANY_ATOMS.items()}}[name]
    horizon = 60 if name == "sparse_k80" else 40
    # default, early and mid-path caps, then a horizon far past the cap
    cases = [(seed, horizon, (sim._DEFAULT_CAP, 5_000, 10**9)[seed % 3]) for seed in range(200)]
    cases += [(seed, 10**5, sim._DEFAULT_CAP) for seed in range(200, 205)]
    capped = 0
    for seed, horizon, cap in cases:
        got, want = sim.run(law, horizon, (seed, 7), cap=cap), _reference_run(law, horizon, (seed, 7), cap=cap)
        for field in _FIELDS:
            assert getattr(got, field) == getattr(want, field), (seed, field)
        assert _cohort_births(got) == want.Bnk, seed
        capped += got.capped
    assert 0 < capped < len(cases)  # both kinds of path were compared
    assert got.capped and got.horizon < 10**4


def test_horizon_is_derived_from_the_draws(gw13_deaths):
    trace = sim.run(gw13_deaths, 12, 7)
    assert trace.horizon == len(trace.cohort_atoms) - 1 == 12
    with pytest.raises(ValueError, match="horizon"):
        dataclasses.replace(trace, horizon=5)
    assert dataclasses.replace(trace, cohort_atoms=trace.cohort_atoms[:6]).horizon == 5


def test_run_memory_does_not_grow_with_an_unreached_horizon(gw13):
    """The birth schedule grows one slot a step, so a path capped within 60 steps holds little at any horizon."""
    sim.run(gw13, 100, 0)  # warm up, so first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        trace = sim.run(gw13, 10**7, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.capped and trace.horizon == 60
    assert peak < 1 << 20


def test_run_refuses_a_cap_past_int64_unless_the_law_has_one_atom(gw13, det_gw):
    with pytest.raises(ValueError, match=r"cap = 1208925819614629174706176 exceeds 2\^63 - 1 = 9223372036854775807"):
        sim.run(gw13, 10, 0, cap=1 << 80)
    assert sim.run(gw13, 10, 0, cap=(1 << 63) - 1).Z == _reference_run(gw13, 10, 0, cap=(1 << 63) - 1).Z
    trace = sim.run(det_gw, 100, 0, cap=1 << 80)
    assert trace.capped and trace.horizon == 79 and trace.Z[-1] == (1 << 80) - 1
    # counts past int64 still reach the functionals, converted straight from the Python ints
    assert trace.Z_float.tobytes() == np.asarray(trace.Z, dtype=float).tobytes()
    assert trace.B_float.tobytes() == np.asarray(trace.B, dtype=float).tobytes()
    # any cap, but the float views need counts below 2^1024: Z_1023 = 2^1024 - 1 is the first to pass float64
    assert sim.run(det_gw, 1000, 0, cap=1 << 1100).Z[-1] == (1 << 1001) - 1
    with pytest.raises(OverflowError, match=r"^Z_1023 at n = 1023 passes float64: .* counts below 2\^1024$"):
        sim.run(det_gw, 1100, 0, cap=1 << 1100)


def test_float_views_are_exact_and_read_only(gw13_coin):
    trace = sim.run(gw13_coin, 70, 11)
    assert trace.capped and max(trace.Z) > 1 << 61  # counts near the cap, where float64 must round them
    for name in ("B", "Z"):
        view = getattr(trace, f"{name}_float")
        assert view.tobytes() == np.asarray(getattr(trace, name), dtype=float).tobytes()
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.0


def test_innovations_are_exact_per_table(law_i, law_ii):
    trace = sim.run(law_i, 20, 3)
    tab_i, tab_ii = moments(law_i), moments(law_ii)  # the same K, different mu
    W_i = sim.innovations(trace, tab_i)
    W_ii = sim.innovations(trace, tab_ii)
    assert not np.array_equal(W_i, W_ii)
    B = np.asarray(trace.B, dtype=float)
    for tab, W in ((tab_i, W_i), (tab_ii, W_ii)):
        want_W = B.copy()  # W_n = B_n - sum_k mu_k B_{n-k}, subtracted in increasing k
        for k in range(1, len(tab.mu)):
            want_W[k:] -= tab.mu[k] * B[:-k]
        assert W.tobytes() == want_W.tobytes()


def test_corrupted_copy_faults_in_each_reader_with_one_message(gw13):
    trace = sim.run(gw13, 12, 31)
    tab, m = moments(gw13), malthusian(gw13)
    rows = list(trace.cohort_atoms)
    rows[5] = (rows[5][0] + 3, rows[5][1])
    messages = []
    for _ in range(2):
        with pytest.raises(RuntimeError, match="birth identity violated at n = 5") as exc:
            dataclasses.replace(trace, cohort_atoms=tuple(rows))
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert sim.verify_recursion(trace, tab, m, 5, 8) <= 1e-12
