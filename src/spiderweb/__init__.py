"""Spiderweb central configurations: solver, rigorous certifier, analysis."""

__version__ = "0.1.0"

from .core import (
    FLOAT64,
    INTERVAL,
    CollisionError,
    Configuration,
    OrderingViolated,
    SpiderwebParams,
)
from .intervals import Interval
from .solver import (
    BracketError,
    ContinuationSettings,
    ContinuationStalled,
    NewtonDiverged,
    SingularJacobian,
    SolverError,
    build_configuration,
    continue_mass,
    insert_zero_mass_ring,
    solve_single_ring,
)
# the existence certifier lives in spiderweb.certify; its entry point is
# certify.certify(config), not re-exported here so the submodule name stays
# importable
from .certify import (
    BallLeavesCone,
    Certificate,
    CertificationFailed,
    HCheckReport,
    h_ell_check,
)
from .analysis import (
    MassProfile,
    SpacingProfile,
    mass_profile,
    scan,
    spacing_profile,
)

__all__ = [
    "__version__",
    "FLOAT64",
    "INTERVAL",
    "Interval",
    "SpiderwebParams",
    "Configuration",
    "OrderingViolated",
    "CollisionError",
    "ContinuationSettings",
    "SolverError",
    "NewtonDiverged",
    "SingularJacobian",
    "ContinuationStalled",
    "BracketError",
    "solve_single_ring",
    "insert_zero_mass_ring",
    "continue_mass",
    "build_configuration",
    "Certificate",
    "CertificationFailed",
    "BallLeavesCone",
    "HCheckReport",
    "h_ell_check",
    "SpacingProfile",
    "MassProfile",
    "spacing_profile",
    "mass_profile",
    "scan",
]
