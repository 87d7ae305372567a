"""Numerical and symbolic toolkit for second and fourth order diffusion on a model cone.

The cone is [x_min, 1] x (cross section), carrying the metric dx^2 + x^2 h.
The package splits into a symbolic layer (eigenvalue catalogs, pole catalogs of
the radial conormal symbol, admissible near-tip asymptotics and the domains of
the closed extensions they generate) and a numerical layer (log-radial grids,
weighted Sobolev norms, banded mode-diagonal operators, semi-implicit
Cahn-Hilliard / Allen-Cahn stepping, sectorial-operator estimates and
exponent-recovery diagnostics).
"""

import ctypes


def _keep_freed_heap():
    """Raise glibc's mmap and trim thresholds so freed arrays are reused.

    A time step frees and reallocates the same padded-grid temporaries.
    At glibc's defaults the larger ones come from mmap and go back to the
    kernel when freed, so every step faults them in again.  From 32 MiB
    (M_MMAP_THRESHOLD, the 64-bit maximum) down they now come from the
    heap, and freed heap memory is returned only once 256 MiB of it sits
    at the top (M_TRIM_THRESHOLD), so it stays with the process until
    exit.  A C library without mallopt is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


_keep_freed_heap()

from .cross_section import CrossSection, make_circle, make_sphere, from_spectrum
from .cone_symbol import (
    AsymptoticTerm,
    PoleCatalog,
    PoleEntry,
    PoleProximityError,
    apply_symbol,
    compute_bilaplacian_poles,
    compute_poles,
    invert_symbol,
    symbolic_laplacian,
)
from .extensions import (
    DomainAddon,
    EndpointCollisionError,
    ExtensionSpec,
    InconsistentDomainError,
    admissible_window,
    build_extension,
    default_weight,
    interval_I,
    weight_window,
)
from .mellin import (
    ConeGrid,
    FieldState,
    constant_state,
    cutoff,
    mellin_norm,
    membership_test,
    monomial_state,
)
from .assembly import (
    TransformPlan,
    cubic_field,
    flux_divergence,
    laplacian_suite,
    nonlinearity,
    transform_plan,
)
from .evolve import (
    Stepper,
    compatibility_check,
    double_well,
    energy_functional,
    initial_state,
    mass_functional,
    run,
)
from .spectral_lab import (
    LabReport,
    SpectrumInSectorError,
    bip_estimate,
    imaginary_power_integral,
    lab_report,
    matrix_power_spd,
    perturbation_conditions,
    sector_resolvent_bound,
    symmetrized_laplacian,
    verify_square_identity,
)
from .asymptotics import (
    FitOverflowError,
    ZeroModeError,
    fit_exponents,
    interior_smoothness_report,
    match_catalog,
)
from .config import Config, ConfigError
from .cli import dispatch, main, parse_config

__version__ = "0.1.0"
