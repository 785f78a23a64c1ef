"""modtail: non-asymptotic tail bounds for sums of heavy-tailed variables,
with Monte Carlo certification."""

from ._version import __version__
from .errors import ConfigError, DomainError, ModtailError, NumericError
from .slowvary import (Constant, IterLogPower, LogPower, Product,
                       SlowlyVarying, format_sv, limit_at_infinity_is_zero,
                       parse_sv, sv_eval)
from .distribution import (MdtParams, make_mdt, quantile, sample, survival,
                           tail_formula)
from .moments import (MomentCurve, default_p_grid, moment_from_tail,
                      natural_psi, theta, theta_regime, verify_equivalence)
from .fenchel import (FenchelCurve, GeneratingFunction, fenchel,
                      gls_norm_from_moments, tail_from_gls)
from .bounds import (SumMomentEnvelope, TailCurve, c1_pessimistic,
                     calibrate_closed_constant, closed_curve, closed_shape,
                     fenchel_curve_bound, lower_witness, q_bound_closed,
                     q_bound_fenchel, rosenthal_constant, rosenthal_sum_moment,
                     witness_curve)
from .entropy import (FieldModel, HolderParams, MetricEntropyModel,
                      check_entropy_condition, entropy_integral,
                      finite_net_union_bound, natural_distance_bound,
                      uniform_tail_bound)
from .harness import (CertificationResult, EmpiricalTailReport, SimulationPlan,
                      certify, confidence_radius, coverage_miss_rate,
                      default_u_grid, dkw_halfwidth, make_plan, simulate,
                      simulate_field, tail_slope)

__all__ = [name for name in dir() if not name.startswith("_")]
