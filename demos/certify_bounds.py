"""Calibrate the closed-form constant and certify it on a fresh seed.

The pessimistic constant c1_pessimistic is loose, and it rests on the
growth order of optimal Rosenthal constants, not on a proven constant.
This script fits a much smaller constant against a reference
simulation (plus a 2x DKW slack), then re-checks it on an independent
seed: the certified bound must dominate the fresh empirical tail at
every grid point, and the lower witness must stay below it.
"""

import time

import numpy as np

from modtail import (c1_pessimistic, calibrate_closed_constant, certify,
                     closed_curve, make_mdt, make_plan, quantile, simulate,
                     witness_curve)

params = make_mdt(beta=4.0, gamma=0.0)
n_grid = (1, 2, 4, 8, 16, 32, 64, 128, 256)
u_grid = np.geomspace(params.u_star, quantile(params, 1e-3), 40)

t0 = time.time()
ref = simulate(make_plan(params, seed=1, n_grid=n_grid, reps=50_000,
                         u_grid=u_grid, threads=4))
c_cal = calibrate_closed_constant(params, ref.u_grid, ref.qhat,
                                  slack=2.0 * ref.dkw)
print(f"reference run: {time.time() - t0:.1f}s, DKW half-width {ref.dkw:.4f}")
print(f"pessimistic constant: {c1_pessimistic(params):.3e}")
print(f"calibrated constant:  {c_cal:.3e}")

fresh = simulate(make_plan(params, seed=2, n_grid=n_grid, reps=50_000,
                           u_grid=u_grid, threads=4))
result = certify(fresh, [closed_curve(params, c=c_cal, mode="calibrated"),
                         witness_curve(params)])
print(f"\nfresh-seed certification: {'PASS' if result.passed else 'FAIL'}")
for v in result.verdicts:
    print(f"  {v.provenance}: passed={v.passed} over {v.checked_cells} cells"
          + (f", violations at u={v.violations}" if v.violations else ""))

print("\nempirical sup-tail vs certified bound (every 5th grid point):")
bound = closed_curve(params, c=c_cal).evaluate(u_grid)
for i in range(0, u_grid.size, 5):
    print(f"  u={u_grid[i]:9.3g}  qhat={fresh.qhat[i]:.5f}  bound={bound[i]:.5f}")
