"""Numerical toolkit for isoperimetric variational problems with time delay.

Represents candidate trajectories as piecewise polynomials, evaluates the
delayed Euler-Lagrange, DuBois-Reymond, and Pontryagin residuals together
with Noether conserved quantities along them, verifies invariance under
transformation groups, and solves the delayed boundary-value problems by
global collocation.  It never prints.
"""

from .errors import (
    BlockOutOfRange,
    DelayVarError,
    DerivativeOrderTooHigh,
    EmptyGrid,
    EvaluationDomain,
    ExprSyntaxError,
    IOutOfRange,
    JOutOfRange,
    NoConstraints,
    NotJetCapable,
    OrderTooHigh,
    OutOfDomain,
    SingularJacobian,
    StencilCrossesBreakpoint,
    TransformEscapesDomain,
    UnknownVariable,
    WrongOrder,
)
from .trajectory import PolySegment, Trajectory, example1_trajectory
from .problem import (
    ArgLayout,
    ArgVector,
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    args_at,
    augmented_integrand,
    constraint_defect,
    constraint_values,
    functional_value,
    integrand_from_expr,
    problem_from_json,
)
from .calculus import derivative_in_parameter, integrate, partial
from .euler_lagrange import (
    Classification,
    ResidualReport,
    classify,
    el_residual,
    momentum_jumps,
    residual_grids,
)
from .dubois_reymond import cdur_residual, dr_quantity, dr_residual, psi
from .noether import (
    ConstancyReport,
    constancy_report,
    invariance_defect,
    necessary_condition_defect,
    noether_quantity,
    rho,
)
from .optimal_control import (
    PmpResiduals,
    PontryaginTriple,
    control_args_at,
    hamiltonian,
    hamiltonian_noether_quantity,
    pmp_residuals,
    reduce_to_control,
    second_order_noether_quantity,
)
from .solver import CollocationScheme, SolveReport, solve_el, solve_pmp, verify

__version__ = "0.1.0"
