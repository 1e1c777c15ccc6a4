"""Finite-element laboratory for biharmonic Steklov problems on oscillating
subgraph domains: spectral stability, strange-curvature shift and
degeneration to clamped conditions."""

from .profile_geometry import (BoundaryProfile, DomainSpec, KappaLayer,
                               DiffeoField, AssumptionReport,
                               eval_profile, build_diffeo, fit_kappa_layer,
                               default_kappa, check_assumptions, ProfileError,
                               GeometryError)
from .mesh import Mesh, DofMap, build_mesh, mark_essential
from .assembly import (FormKind, MASS, GRAD_MASS, LAPLACIAN_ENERGY,
                       HESSIAN_ENERGY, MIXED_U_DELTA, normal_trace,
                       boundary_mass, FeSystem, FeFunction, assemble,
                       assemble_many, assemble_navier_load, e_distance,
                       sobolev_forms)
from .spectral import (SteklovSpectrum, solve_steklov, rayleigh,
                       NoSteklovEigenvalues, SpectralConvergenceError)
from .cell_problem import CellSolution, solve_cell, cell_energy_density
from .navier import (NavierSolution, NtnOperator, solve_navier,
                     normal_derivative_functional, build_ntn, ntn_eigenvalues,
                     mixed_splitting_solve, relative_h1_error)

__version__ = "0.1.0"
