"""Fluctuation analysis for lattice branching populations.

Classify the fluctuation regime of a finite-support age-structured branching
process from the root geometry of its mean-litter transform, compute the
limiting covariance structure of the prediction errors ``Z_{n-k} - m^-k Z_n``
(and of totals scored by a bounded characteristic), simulate the population
exactly, and verify the distributional claims by Monte Carlo.
"""

from __future__ import annotations

from .errors import RefusalError, UsageError
from .offspring import (
    LitterAtom,
    MomentTable,
    OffspringLaw,
    law_fingerprint,
    make_law,
    moments,
    mu_hat,
    mu_hat_prime,
    sigma_hat,
    validate_law,
)

__version__ = "0.1.0"
