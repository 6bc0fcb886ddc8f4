#!/usr/bin/env python3
# Enhanced dissipation: for f0 ~ kappa/|y|^alpha the Burgers sup norm decays
# like t^{-alpha/(1+alpha)}, faster than the heat equation's t^{-alpha/2}
# for the same data.  This sweep fits both exponents and writes the raw
# sup-norm curves to CSV.
#
# Usage: python demos/demo_decay_rates.py
import csv
from pathlib import Path

import numpy as np

from hopfcole import burgers, heat
from hopfcole.experiments import fit_power_law
from hopfcole.initial_data import FamilySpec, make_family

alpha = 0.5
data = make_family(FamilySpec("PowerC0", kappa=1.0, alpha=alpha))
ts = np.geomspace(1e3, 1e7, 13)

# one sweep call per equation: the scans of all t run in lockstep
rows = [(float(t), rb.value, rh.value) for t, rb, rh in
        zip(ts, burgers.sup_norm(data, ts, n_coarse=65), heat.heat_sup_norm(data, ts, n_coarse=65))]
for t, b, h in rows:
    print(f"t = {t:10.3g}   burgers sup = {b:.6f}   heat sup = {h:.6f}")

fit_b = fit_power_law([(t, v) for (t, v, _h) in rows])
fit_h = fit_power_law([(t, h) for (t, _v, h) in rows])
print()
print(f"burgers exponent: {fit_b.exponent:.4f}   (theory alpha/(1+alpha) = {alpha/(1+alpha):.4f})")
print(f"heat exponent:    {fit_h.exponent:.4f}   (theory alpha/2        = {alpha/2:.4f})")
print(f"dissipation enhancement: {fit_b.exponent - fit_h.exponent:+.4f}")

out = Path("demo_out")
out.mkdir(exist_ok=True)
with open(out / "decay_rates.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["t", "burgers_sup", "heat_sup"])
    w.writerows(rows)
print(f"\nwrote {out / 'decay_rates.csv'}")
