"""Uniform tail bound for the supremum of a heavy-tailed random field.

The field is a small Fourier mix on [0, 1] with heavy-tailed amplitudes
and uniform phases.  Two routes to a supremum bound are compared:

  * the entropy route: check the entropic-integral condition and apply
    the generic uniform bound, whose constant no proved chain backs;
  * the union-bound route: a grid bound built from the scalar closed
    form plus a Lipschitz excess term.

Both are then checked against a direct simulation of the grid supremum.
"""

import numpy as np

from modtail import (FieldModel, MetricEntropyModel, check_entropy_condition,
                     entropy_integral, finite_net_union_bound, make_mdt,
                     make_plan, natural_distance_bound, simulate_field,
                     uniform_tail_bound)

params = make_mdt(beta=4.0, gamma=0.0)
field = FieldModel(params=params, weights=(1.0, 0.5, 0.25), resolution=64)
print("law:", params.describe())
print(f"field: J={field.n_components} weights={field.weights} M={field.resolution}")
print(f"semi-distance across the interval: "
      f"{natural_distance_bound(field, 0.0, 0.5):.3f}")

entropy = MetricEntropyModel.from_holder(d=1, alpha=1.0)
ok = check_entropy_condition(d=1, alpha=1.0, beta=params.beta, gamma=params.gamma)
integral = entropy_integral(entropy, params.beta, params.gamma)
print(f"\nentropy condition beta/(gamma+1) > d/alpha: {ok}")
print(f"entropic integral: {integral:.6f}  (closed form 4/3)")

plan = make_plan(params, seed=7, n_grid=(1, 4, 16, 64), reps=20_000,
                 u_grid=np.geomspace(8.0, 400.0, 16), threads=4)
report = simulate_field(field, plan)

print(f"\n{'u':>9} {'sim qhat':>10} {'union bound':>12} {'entropy bound':>14}")
violations = 0
for u, q in zip(report.u_grid, report.qhat):
    net = finite_net_union_bound(field, params, float(u))
    ent = uniform_tail_bound(entropy, params, float(u))
    violations += int(q - report.dkw > net)
    print(f"{u:9.3g} {q:10.5f} {net:12.5f} {ent:14.5g}")

print(f"\nunion bound violations: {violations}/{report.u_grid.size} "
      f"(DKW half-width {report.dkw:.4f})")
print("The entropy-route constant is a heuristic scale of the scalar one;")
print("the union bound is the tighter one on the grid.")
