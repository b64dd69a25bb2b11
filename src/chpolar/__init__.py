"""Polar actions on complex hyperbolic space, made executable.

Subpackages:

- ``kahler``: Kahler angles and the canonical decomposition of real
  subspaces of C^m, congruence, normalizers.
- ``su1n``: concrete matrix model of su(1, n) with its restricted root
  space decomposition, Cartan involution and metrics.
- ``angeom``: left-invariant geometry of the solvable model AN
  (connection, curvature, shape operators, mean curvature).
- ``polar``: constructors for the two polar-action families, the numerical
  polarity criterion, orbit-equivalence invariants and moduli enumeration.
- ``cli``: JSON-in/JSON-out command line interface.
"""

from .kahler import (
    KahlerDecomposition,
    RealSubspace,
    congruent,
    decompose,
    make_constant_angle,
    normalizer_algebra,
    ominus,
)
from .su1n import (
    ConsistencyError,
    RootDecomposition,
    bracket,
    build_root_decomposition,
    inner,
    inner_an,
    theta,
)
from .angeom import (
    OrbitModel,
    an_bracket,
    an_vector,
    curvature,
    levi_civita,
    mean_curvature,
    mean_curvature_closed_form,
    shape_operator,
)
from .polar import (
    PolarActionSpec,
    PolarityReport,
    build_family_I,
    build_family_II,
    check_polarity,
    check_spec,
    enumerate_moduli,
    orbit_equivalence_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "KahlerDecomposition",
    "OrbitModel",
    "PolarActionSpec",
    "PolarityReport",
    "RealSubspace",
    "RootDecomposition",
    "an_bracket",
    "an_vector",
    "bracket",
    "build_family_I",
    "build_family_II",
    "build_root_decomposition",
    "check_polarity",
    "check_spec",
    "congruent",
    "curvature",
    "decompose",
    "enumerate_moduli",
    "inner",
    "inner_an",
    "levi_civita",
    "make_constant_angle",
    "mean_curvature",
    "mean_curvature_closed_form",
    "normalizer_algebra",
    "ominus",
    "orbit_equivalence_invariants",
    "shape_operator",
    "theta",
]
