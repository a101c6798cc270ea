"""Steady states of an activator-inhibitor elliptic system on R^N.

Numerically constructs, bounds, and certifies positive radial steady
states of the coupled system

    -Delta u + lam u = u^p / v^q + rho(x),
    -Delta v + mu  v = u^m / v^s,          u, v -> 0 at infinity,

via explicit barrier sandwiches, closed-form feasibility constants,
monotone sub/super-solution iteration, and nonexistence predicates.
"""

__version__ = "0.1.0"

from .barriers import (
    BarrierFamily,
    BarrierProfile,
    ConstantsLedger,
    Exponents,
    Problem,
    SourceModel,
    Verdict,
    VerdictStatus,
    alg_regime_ledger,
    classify,
    eval_barrier,
    exp_regime_ledger,
    sigma_index,
)
from .certificates import aubin_talenti, closed_form_exponents, verify_cor3, verify_solution
from .kernels import GreenParams, bessel_k, green_lambda, green_zero, verify_kernel_bounds
from .potentials import (
    DivergenceReport,
    DivergenceVerdict,
    bessel_potential_radial,
    convr_check,
    divergence_probe_rho,
    newton_potential_radial,
    representation_residual,
)
from .radial_core import (
    RadialField,
    RadialGrid,
    apply_radial_laplacian,
)
from .solvers import (
    SolveReport,
    SolveStatus,
    decay_fit,
    solve_coupled_alg,
    solve_coupled_exp,
    solve_singular_scalar,
)

__all__ = [
    "__version__",
    "BarrierFamily",
    "BarrierProfile",
    "ConstantsLedger",
    "DivergenceReport",
    "DivergenceVerdict",
    "Exponents",
    "GreenParams",
    "Problem",
    "RadialField",
    "RadialGrid",
    "SolveReport",
    "SolveStatus",
    "SourceModel",
    "Verdict",
    "VerdictStatus",
    "alg_regime_ledger",
    "apply_radial_laplacian",
    "aubin_talenti",
    "bessel_k",
    "bessel_potential_radial",
    "classify",
    "closed_form_exponents",
    "convr_check",
    "decay_fit",
    "divergence_probe_rho",
    "eval_barrier",
    "exp_regime_ledger",
    "green_lambda",
    "green_zero",
    "newton_potential_radial",
    "representation_residual",
    "sigma_index",
    "solve_coupled_alg",
    "solve_coupled_exp",
    "solve_singular_scalar",
    "verify_cor3",
    "verify_kernel_bounds",
    "verify_solution",
]
