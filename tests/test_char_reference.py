"""Scored totals derived from cohort counts, against a reference copy of the per-cohort score loops.

The reference forms each cohort's summed score row exactly as a trace used to
store it, then sums the totals in their original pass.  On every clean trace
the library must return the reference's totals bit for bit: its identity
check is exact on the integer counts, so no example may fault.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmjfluct import make_law, validate_law
from cmjfluct import simulate as sim


def _reference_scores(trace, law):
    chars = [atom.char_values for atom in law.atoms]
    return tuple(
        tuple(float(sum(counts[idx] * chars[idx][age] for idx in range(len(counts)))) for age in range(law.char_max_age + 1))
        for counts in trace.cohort_atoms
    )


def _reference_totals(cs, trace, law):
    k_phi = law.char_max_age
    totals = np.empty(trace.horizon + 1)
    frozen_tail = 0.0
    for n in range(trace.horizon + 1):
        acc = 0.0
        for age in range(0, min(n, k_phi) + 1):
            acc += cs[n - age][age]
        if law.char_extends and n - k_phi - 1 >= 0:
            frozen_tail += cs[n - k_phi - 1][k_phi]
            acc += frozen_tail
        totals[n] = acc
    return totals


@st.composite
def _scored_laws(draw):
    n_atoms = draw(st.integers(1, 4))
    k_max = draw(st.integers(1, 6))
    k_phi = draw(st.integers(0, 6))
    weights = [draw(st.integers(1, 9)) for _ in range(n_atoms)]
    score = st.integers(-30, 30).map(lambda i: i / 7 + 0.1)  # never a dyadic rational
    entries = [
        (
            w / sum(weights),
            tuple(draw(st.integers(0, 3)) for _ in range(k_max)),
            tuple(draw(score) for _ in range(k_phi + 1)),
        )
        for w in weights
    ]
    extends = draw(st.booleans())
    if any(any(births) for _, births, _ in entries):
        law = make_law(entries, extends)
        if not validate_law(law):
            return law
    # two first-age children per atom: supercritical, surviving and span 1
    return make_law([(p, (births[0] + 2,) + births[1:], c) for p, births, c in entries], extends)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(law=_scored_laws(), horizon=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_scores_from_cohort_counts_match_reference(law, horizon, seed):
    assert not validate_law(law)
    trace = sim.run(law, horizon, seed)
    cs = _reference_scores(trace, law)
    assert sim.char_total(trace, law).tobytes() == _reference_totals(cs, trace, law).tobytes()
