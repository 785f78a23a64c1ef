"""Tail of the supremum of a heavy-tailed random field.

The field is a small Fourier mix on [0, 1] with heavy-tailed amplitudes
and uniform phases.  Its natural distance has a computable bound, which
gives the field's own covering model and entropic integral.  A grid
union bound, built from the scalar closed form plus a Lipschitz excess
term, is then checked against a direct simulation of the grid supremum.
"""

import numpy as np

from modtail import (FieldModel, check_entropy_condition, entropy_integral,
                     field_entropy_model, finite_net_union_bound, make_mdt,
                     make_plan, natural_distance_bound, simulate_field)
from modtail.entropy import net_bound_level

params = make_mdt(beta=4.0, gamma=0.0)
field = FieldModel(params=params, weights=(1.0, 0.5, 0.25), resolution=64)
print("law:", params.describe())
print(f"field: J={field.n_components} weights={field.weights} M={field.resolution}")
print(f"semi-distance across the interval: "
      f"{natural_distance_bound(field, 0.0, 0.5):.3f}")

model = field_entropy_model(field)
ok = check_entropy_condition(model.d, model.alpha, params.beta, params.gamma)
integral = entropy_integral(model, params.beta, params.gamma)
print(f"\ncovering model under the natural distance: d={model.d} "
      f"alpha={model.alpha:g} C5={model.diameter:.4g} C10={model.c10:.4g}")
print(f"entropy condition beta/(gamma+1) > d/alpha: {ok}")
print(f"entropic integral: {integral:.6f}")

plan = make_plan(params, seed=7, n_grid=(1, 4, 16, 64), reps=20_000,
                 u_grid=np.geomspace(8.0, 400.0, 16), threads=4)
report = simulate_field(field, plan)

print(f"\n{'u':>9} {'sim qhat':>10} {'union bound':>12}")
violations = 0
for u, q in zip(report.u_grid, report.qhat):
    net = finite_net_union_bound(field, params, float(u))
    violations += int(q - report.dkw > net)
    print(f"{u:9.3g} {q:10.5f} {net:12.5f}")

print(f"\nunion bound violations: {violations}/{report.u_grid.size} "
      f"(DKW half-width {report.dkw:.4f})")
print(f"the union bound first drops to 1e-3 at u = "
      f"{net_bound_level(field, params, 1e-3):.4g}")
