"""Numerical laboratory for the heat flow of the constant-mean-curvature H-system.

The flow u_t = Lap(u) - 2 H u_x ^ u_y is discretized on the unit square with
homogeneous Dirichlet boundary.  The package evaluates the associated energy
and Nehari functionals, estimates the potential-well depth from concentrating
bubble directions, classifies initial data into global-decay and blow-up
regimes, integrates the flow with a semi-implicit scheme, and checks the
structural identities (energy dissipation, sign persistence, decay rate,
concavity blow-up evidence) along trajectories.
"""

from .classify import (
    BlowupReport,
    DecayFit,
    DeltaSignReport,
    Verdict,
    blowup_report,
    check_e54,
    check_sign_persistence,
    classify_initial,
    delta_window,
    fit_decay_rate,
)
from .fields import discrete_laplacian_eigenvalue, eigenmode, random_bandlimited
from .flow import (
    BLOWUP_SUSPECTED,
    DECAYED_TO_ZERO,
    REACHED_HORIZON,
    FlowParams,
    SolverError,
    TrajectoryRecord,
    run,
    solve_helmholtz,
)
from .functionals import (
    FunctionalReport,
    a_of_delta,
    energy_E,
    isoperimetric_gap,
    nehari_D,
    nehari_D_delta,
    r_of_delta,
    report,
    volume_VH,
    volume_integral,
)
from .grid import (
    GridSpec,
    VectorField,
    h1_forward_sq,
    h1_seminorm_sq,
    l2_norm_sq,
    make_grid,
    sample,
)
from .nehari import (
    EstimationError,
    FiberingCoefficients,
    NoMaximizerError,
    WellParameters,
    bubble_direction,
    d_of_delta,
    delta_roots,
    estimate_d,
    fiber_peak_energy,
    fibering_coeffs,
    lambda_star,
    project_nehari_delta,
    sample_lambda_Lambda,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
