#!/usr/bin/env python3
"""Cross-check each limiting variance along independent routes.

Three laws with hand-derivable limits, each computed at least two ways:

  * binary-or-triple law: the exact circle spectrum against the rational
    value 1/8, and against the epoch series (its discounted sum over
    reproduction epochs, solved as a Stein equation in the window of the
    operator T), and against a pathwise conditional quadratic variation
    from one long simulated trace;
  * regime-I two-age law: the exact spectrum against the closed rational form
    in the growth factor m and the second characteristic value lam;
  * regime-II two-age law: the atom-form variance against 1/192.

Agreement across spectrum / series / simulation is the point: the routes
share no code beyond the offspring moments.

Run:  python3 demos/variance_crosschecks.py
"""

from __future__ import annotations

import math

from cmjfluct import make_law
from cmjfluct.limits import build_spectrum, sigma2_series, variance
from cmjfluct.offspring import moments
from cmjfluct.simulate import martingale_qv, run
from cmjfluct.spectral import classify

E1 = {1: 1.0}  # the statistic Z_{n-1} - Z_n / m, the first window component


def spectrum_of(law):
    report = classify(law)
    return report, build_spectrum(report, moments(law))


# ---- binary-or-triple at age 1: limit Var = sigma^2 m^-3 = 2 / 16 = 1/8

gw = make_law([(0.5, (1,)), (0.5, (3,))])
report, spec = spectrum_of(gw)
exact = variance(spec, E1)
series = sigma2_series(gw, report, E1)
trace = run(gw, 22, seed=(7, 0, 0))
qv_ratio = martingale_qv(trace, moments(gw), E1, 22) / trace.Z[22]
print("binary-or-triple law, statistic X_{n,1}/sqrt(Z_n):")
print("  closed form          1/8   = 0.125")
print(f"  exact circle spectrum      = {exact:.15f}")
print(f"  epoch series (Stein)       = {series:.15f}")
print(f"  pathwise QV / Z_n (1 path) = {qv_ratio:.6f}   (a.s. limit; one 22-step trace)")

# ---- regime-I two-age law: rational closed form in m and lam

law_i = make_law([(0.5, (1, 1)), (0.5, (3, 1))])
m = 1.0 + math.sqrt(2.0)
lam = 1.0 - math.sqrt(2.0)
s11, s12, s22 = 1.0, 0.0, 0.0
closed = ((m + lam) * (s11 + s22 / m) + 2.0 * (1.0 + lam) * s12) / (
    m * m * (m - lam) * (m - lam * lam)
)
report, spec = spectrum_of(law_i)
exact = variance(spec, E1)
series = sigma2_series(law_i, report, E1)
print("\ntwo-age law, mean litters (2, 1):")
print(f"  rational closed form       = {closed:.15f}")
print(f"  exact circle spectrum      = {exact:.15f}")
print(f"  epoch series (Stein)       = {series:.15f}")

# ---- regime-II two-age law: atoms on the critical circle, limit 1/192

law_ii = make_law([(0.5, (1, 8)), (0.5, (3, 8))])
report, spec = spectrum_of(law_ii)
atoms = variance(spec, E1)
print("\ntwo-age law, mean litters (2, 8), statistic X_{n,1}/sqrt(n Z_n):")
print(f"  closed form         1/192  = {1.0 / 192.0:.15f}")
print(f"  atom-form variance         = {atoms:.15f}")
print(f"  (one critical root at {report.gamma_crit[0].real:+.1f}; spectrum kind: {spec.kind})")
