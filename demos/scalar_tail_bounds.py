"""Walk through the scalar bound stack for one heavy-tailed law.

Builds a law with tail u**(-4) past its activation point, then prints the
three tail curves for the normalized sums side by side: the rigorous
lower witness (the n=1 tail), the closed-form upper bound, and the
conjugate (Fenchel) upper bound.
"""

import numpy as np

from modtail import (fenchel_curve_bound, closed_curve, make_mdt,
                     quantile, witness_curve)

params = make_mdt(beta=4.0, gamma=0.0)
print("law:", params.describe())
print("median of |xi|:", quantile(params, 0.5))

u_grid = np.geomspace(params.u_star, 1e4, 12)
curves = [witness_curve(params), closed_curve(params), fenchel_curve_bound(params)]

print(f"\n{'u':>12} " + " ".join(f"{c.provenance:>18}" for c in curves))
for u in u_grid:
    row = []
    for c in curves:
        row.append(f"{float(c.evaluate(u)):18.3e}" if u >= c.u_min else f"{'-':>18}")
    print(f"{u:12.4g} " + " ".join(row))

print("\nThe witness is a true lower bound on Q(u) = sup_n P(|S_n| > u);")
print("both upper curves must sit above it, and they do:")
mask = u_grid >= params.u_star
wit = curves[0].evaluate(u_grid[mask])
for c in curves[1:]:
    ok = np.all(c.evaluate(u_grid[mask]) >= wit)
    print(f"  {c.provenance}: dominates witness everywhere = {ok}")
