"""toralab: a numerical laboratory for hyperbolic toral automorphisms.

Exact classification of integer automorphisms, perturbed Anosov maps,
conjugacies and their regularity, twisted cohomological equations with a
KAM-style improvement step, and linear-cocycle diagnostics.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .spectral import (IntegerAutomorphism, automorphism, block_diagonal,
                       block_upper_identity, char_poly, classify,
                       classification_report, factorization,
                       lyapunov_splitting, spectral_data,
                       weakly_irreducible_definitional)
from .torusfn import (GridFunction, TrigPoly, c0_norm, estimate_holder,
                      sobolev_norm)
from .maps import (PerturbedMap, build, fixed_point_near_zero,
                   periodic_data_check, periodic_points, verify_anosov)
from .conjugacy import (ConjugacyResult, build_counterexample, jacobian_dh,
                        periodic_covariance, regularity_metrics,
                        residual_check, solve_conjugacy)
from .twisted import (dual_orbit_decomposition, kam_iterate, kam_step,
                      solve_linearized)
from .cocycles import (CocycleSpec, cocycle_product, conformality_check,
                       conformality_at_periodic, dh_as_cocycle_conjugacy,
                       exponents_at_periodic, fiber_bunching_check,
                       lyapunov_qr, lyapunov_volume, oseledets_subbundle)
from . import errors

# the names imported above; importing a submodule also binds it here, and
# of those only errors is exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and
                 (name == "errors" or not isinstance(value, _ModuleType)))
