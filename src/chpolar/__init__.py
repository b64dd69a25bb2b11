"""Polar actions on complex hyperbolic space, made executable.

Subpackages:

- ``kahler``: Kahler angles and the canonical decomposition of real
  subspaces of C^m, congruence, normalizers.
- ``su1n``: concrete matrix model of su(1, n) with its restricted root
  space decomposition, Cartan involution, metrics and adjoint maps.
- ``angeom``: left-invariant geometry of the solvable model AN
  (connection, curvature, shape operators, mean curvature, isotropy).
- ``polar``: constructors for the two polar-action families, the numerical
  polarity criterion, orbit-equivalence invariants and moduli enumeration.
- ``cli``: JSON-in/JSON-out command line interface.
"""

from .kahler import (
    KahlerDecomposition,
    RealSubspace,
    complex_span,
    congruent,
    decompose,
    kahler_angle,
    make_constant_angle,
    normalizer_algebra,
    normalizer_dimension_formula,
    ominus,
)
from .su1n import (
    ConsistencyError,
    RootDecomposition,
    ad_exp,
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
    conjugate_subalgebra,
    curvature,
    isotropy_at,
    levi_civita,
    mean_curvature,
    mean_curvature_closed_form,
    shape_operator,
)
from .polar import (
    PolarActionSpec,
    PolarityReport,
    build_action,
    build_family_I,
    build_family_II,
    check_polarity,
    check_spec,
    enumerate_moduli,
    orbit_equivalence_invariants,
    regular_vectors,
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
    "ad_exp",
    "an_bracket",
    "an_vector",
    "bracket",
    "build_action",
    "build_family_I",
    "build_family_II",
    "build_root_decomposition",
    "check_polarity",
    "check_spec",
    "complex_span",
    "congruent",
    "conjugate_subalgebra",
    "curvature",
    "decompose",
    "enumerate_moduli",
    "inner",
    "inner_an",
    "isotropy_at",
    "kahler_angle",
    "levi_civita",
    "make_constant_angle",
    "mean_curvature",
    "mean_curvature_closed_form",
    "normalizer_algebra",
    "normalizer_dimension_formula",
    "ominus",
    "orbit_equivalence_invariants",
    "regular_vectors",
    "shape_operator",
    "theta",
]
