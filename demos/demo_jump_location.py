#!/usr/bin/env python3
# The profile jump z_c solves an equal-phase tie between the two competing
# maxima of the rescaled phase.  Three routes are compared:
#   1. the printed closed form of the limiting branch phase (if it admits
#      a tie at all -- for these parameters it does not, which is reported);
#   2. the limit re-derived from the finite-time phase at a stationary point;
#   3. the finite-time tie z_c(t), which converges to route 2.
# On PowerC1 data the plus branch ties against the minus branch; on
# Asymmetric data it ties against the left maximum near y = 0, the root on
# the first monotone piece of g_t, whose limit value is -z^2/4.
#
# Usage: python demos/demo_jump_location.py
import numpy as np

from hopfcole.initial_data import FamilySpec, make_family
from hopfcole.profiles import (
    TiePointError, VARIANT_LIMIT_DERIVED, VARIANT_PRINTED, profile_jump_location,
)
from hopfcole.rescaled import case_for_data, phase_tie_point

for spec in (FamilySpec("PowerC1", kappa=1.0, alpha=1.0 / 3.0),
             FamilySpec("PowerC1", kappa=1.0, alpha=0.5),
             FamilySpec("Asymmetric", kappa=1.0, alpha=1.0 / 3.0, beta=2.0 / 3.0)):
    data = make_family(spec)
    case = case_for_data(data)
    z_limit = profile_jump_location(case, VARIANT_LIMIT_DERIVED)
    beta = "" if spec.beta is None else f", beta = {spec.beta:.4f}"
    print(f"{spec.family}: alpha = {spec.alpha:.4f}{beta}")
    print(f"  limit-derived tie:      z_c = {z_limit:.6f}")
    try:
        z_printed = profile_jump_location(case, VARIANT_PRINTED)
        print(f"  printed-formula tie:    z_c = {z_printed:.6f}  "
              f"(delta {z_printed - z_limit:+.6f})")
    except TiePointError:
        print("  printed-formula tie:    no root on the admissible window "
              "(the printed branch-phase form is inconsistent with the "
              "finite-time limit; reported, not adjudicated)")
    for t in (1e4, 1e5, 1e6):
        zt = phase_tie_point(data, t)
        print(f"  finite-time tie t={t:8.0e}: z_c(t) = {zt:.6f}  "
              f"(delta vs limit {zt - z_limit:+.6f})")
    print()
