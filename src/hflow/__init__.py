"""Numerical laboratory for the heat flow of the constant-mean-curvature H-system.

The flow u_t = Lap(u) - 2 H u_x ^ u_y is discretized on the unit square with
homogeneous Dirichlet boundary.  The package evaluates the associated energy
and Nehari functionals, estimates the potential-well depth from concentrating
bubble directions, classifies initial data into global-decay and blow-up
regimes, integrates the flow with a semi-implicit scheme, and checks the
structural identities (energy dissipation, sign persistence, decay rate,
concavity blow-up evidence) along trajectories.

Each name lives in its module: `from hflow.flow import run`.
"""

__version__ = "0.1.0"
