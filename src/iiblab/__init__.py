"""Numerical laboratory for a torsion-coupled Hermitian metric flow on tori.

The package integrates one geometric flow in two equivalent formulations
and verifies the exact identities the construction relies on against
independent finite-difference oracles.  Entry points:

* :mod:`iiblab.grid`     flat torus grids, spectral and FD derivatives;
* :mod:`iiblab.forms`    (p,q)-forms, wedge algebra, the sigma basis;
* :mod:`iiblab.metrics`  metric constructors and volume data;
* :mod:`iiblab.chern`    connection, curvature, torsion, covariant calculus;
* :mod:`iiblab.flow`     both flow formulations and the integrator;
* :mod:`iiblab.verify`   identity checks with residual reports;
* :mod:`iiblab.diagnostics`  per-time scalar records for run monitoring;
* :mod:`iiblab.snapshot` the binary state container;
* :mod:`iiblab.runconfig`    JSON run configuration;
* :mod:`iiblab.cli`      the ``iiblab`` command.
"""

from .chern import ChernPackage
from .errors import (
    ConfigError,
    DegeneracyError,
    DegreeError,
    GridError,
    HermiticityError,
    IIBLabError,
    PositivityError,
    SingularSystemError,
    SnapshotFormatError,
    ValenceError,
    VerificationError,
)
from .flow import (
    FORM_ANCHOR,
    FORM_WEIGHTED,
    StepControl,
    Trajectory,
    anchor_velocity,
    run_flow,
    weighted_velocity,
)
from .diagnostics import compute_diagnostics
from .forms import DifferentialForm, wedge, wedge_power
from .grid import SPECTRAL, TorusGrid
from .metrics import (
    balanced_band_metric,
    conformally_balanced_defect,
    flat_metric,
    random_band_metric,
    volume_norm,
)
from .runconfig import CONFIG_SCHEMA, ResolvedConfig, load_config_file, resolve_config
from .snapshot import load_snapshot, save_snapshot, snapshot_info
from .verify import (
    EVOLUTION_REGISTRY,
    SPATIAL_REGISTRY,
    verify_S_evolution,
    verify_bianchi,
    verify_commutator_convention,
    verify_connection_difference,
    verify_dilaton_evolution,
    verify_quasilinear_ricci,
    verify_stationarity,
    verify_tau_identity,
    verify_trh_evolution,
)

__version__ = "0.1.0"
