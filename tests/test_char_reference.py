"""Scored totals derived from cohort counts, against a reference copy of the per-cohort score loops.

The reference forms each cohort's summed score row exactly as a trace used to
store it, then sums the totals and the decomposition residual in their
original separate passes.  The library must agree bit for bit, fault for
fault.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmjfluct import make_law, validate_law
from cmjfluct import simulate as sim
from cmjfluct.offspring import char_moments, moments
from cmjfluct.spectral import malthusian


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


def _reference_residual(cs, trace, law):
    m = malthusian(law)
    lam = moments(law).lambda_phi
    cm = char_moments(law, m)
    delta = cm.delta_lambda
    totals = _reference_totals(cs, trace, law)
    k_phi = law.char_max_age
    B, Z = trace.B, trace.Z
    worst = 0.0
    centered_tail = 0.0
    for n in range(trace.horizon + 1):
        zbar = 0.0
        for age in range(0, min(n, k_phi) + 1):
            zbar += cs[n - age][age] - lam[age] * float(B[n - age])
        if law.char_extends and n - k_phi - 1 >= 0:
            centered_tail += cs[n - k_phi - 1][k_phi] - lam[k_phi] * float(B[n - k_phi - 1])
            zbar += centered_tail
        lag_dot = 0.0
        z_n = float(Z[n])
        for k in range(len(delta)):
            past = float(Z[n - k]) if n - k >= 0 else 0.0
            lag_dot += delta[k] * (past - float(m) ** (-k) * z_n)
        lhs = totals[n] - cm.lambda_scalar * z_n
        resid = abs(lhs - (zbar + lag_dot)) / max(1.0, abs(lhs))
        worst = max(worst, resid)
    return worst


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
    worst = _reference_residual(cs, trace, law)
    assert sim.char_decomposition_residual(trace, law) == worst
    if worst > 1e-9:
        message = f"characteristic decomposition violated: max relative residual {float(worst)!r}"
        try:
            sim.char_total(trace, law)
        except RuntimeError as exc:
            assert str(exc) == message
        else:
            raise AssertionError("char_total did not fault where the reference does")
    else:
        assert sim.char_total(trace, law).tobytes() == _reference_totals(cs, trace, law).tobytes()
