"""Show the moment blow-up near p = beta and its theta envelope.

E|xi|**p grows without bound as p approaches the tail exponent beta.
The envelope theta(p) captures exactly that blow-up: the ratio
moment / theta stays within a bounded band all the way to the edge.
When gamma > -1 it tends to beta Gamma(gamma + 1) / tail(u_star), since
theta leaves out the law's normalisation by the tail formula at u_star.
"""

import math

from modtail import (MomentCurve, default_p_grid, make_mdt,
                     moment_from_tail, verify_equivalence)

params = make_mdt(beta=4.0, gamma=0.5)
print("law:", params.describe())

grid = default_p_grid(params, n=12, p_lo=params.beta - 0.5)
curve = MomentCurve.compute(params, grid)
print(f"\n{'p':>10} {'E|xi|^p':>14} {'rule err':>10}")
for p, m, e in zip(curve.p_grid, curve.values, curve.errors):
    print(f"{p:10.5f} {m:14.4e} {e:10.1e}")

report = verify_equivalence(params)
print(f"\nratio moment/theta over p in [beta-0.5, beta-1e-3]:")
print(f"  min {report.ratios.min():.4f}  max {report.ratios.max():.4f}"
      f"  spread {report.ratios.max() / report.ratios.min():.2f}")
print(f"  within factor-{report.band:g} band: {report.passed}")
print(f"  ratio at the last grid point: {report.limit_constant_observed:.4f}")
print(f"  predicted limit beta Gamma(gamma + 1) / tail(u_star): "
      f"{report.limit_constant_predicted:.4f}")

# sanity anchor: for gamma=0, V=1 the moment has a closed form
simple = make_mdt(4.0, 0.0)
p = 3.0
exact = simple.u_star ** p * simple.beta / (simple.beta - p)
print(f"\nclosed-form check (beta=4, gamma=0, p=3):")
print(f"  fixed rule {moment_from_tail(simple, p):.10f}")
print(f"  exact      {exact:.10f}  (u_star^p * beta/(beta-p), e^3 * 4)")
assert math.isclose(moment_from_tail(simple, p), exact, rel_tol=1e-8)
