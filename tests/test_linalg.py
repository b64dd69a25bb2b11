import importlib
import math
import pathlib
import random
import sys

import numpy as np
import pytest

import chpolar
from chpolar import kahler
from chpolar._linalg import (
    ConsistencyError,
    complement_rows,
    generic_draws,
    left_nullspace,
    orthonormal_rows,
    rank,
    unit_rows,
)
from chpolar.kahler import RealSubspace
from chpolar.polar import (
    PolarActionSpec,
    check_polarity,
    normalizer_section,
    orbit_equivalence_invariants,
)
from chpolar.su1n import inner as su1n_inner
from chpolar.su1n import traceless_block, u_frame, u_matrices
from oracles import build_action, isotropy_at, random_subspace, regular_vectors

SCALES = (1e-13, 1e-11, 1e-6, 1.0, 1e6)


# --- the kernel on hand cases -------------------------------------------------------


def test_unit_rows_drops_zero_rows_and_keeps_the_span():
    A = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1e-12]])
    U = unit_rows(A)
    assert np.allclose(U, [[0.6, 0.8, 0.0], [0.0, 0.0, -1.0]])
    assert unit_rows(np.zeros((2, 3))).shape == (0, 3)


def test_unit_rows_is_the_plain_normalization_where_the_norm_is_representable():
    A = np.random.default_rng(2).standard_normal((20, 7)) * np.logspace(-150, 150, 20)[:, None]
    assert np.array_equal(unit_rows(A), A / np.linalg.norm(A, axis=1)[:, None])


def test_unit_rows_does_not_underflow_at_1e_300():
    # the squares of 1e-300 underflow; rows are scaled by a power of two
    # first.  1e-300 stays out of SCALES: brackets of such rows underflow
    A = np.array([[1e-300, 0.0], [3e-300, -4e-300], [0.0, 0.0]])
    assert np.allclose(unit_rows(A), [[1.0, 0.0], [0.6, -0.8]], rtol=0.0, atol=1e-15)
    assert np.allclose(unit_rows(1e300 * A[:2] / 1e-300), unit_rows(A[:2]), rtol=0.0, atol=1e-15)
    assert RealSubspace(2, [[1e-300, 0]]).dim == 1
    V = random_subspace(3, [(math.pi / 5, 2), (math.pi / 2, 1)], np.random.default_rng(4))
    got = kahler.decompose(RealSubspace(3, 1e-300 * V.basis)).moduli()
    want = kahler.decompose(V).moduli()
    assert [d for _, d in got] == [d for _, d in want]
    assert np.allclose([a for a, _ in got], [a for a, _ in want], rtol=0.0, atol=1e-12)


def test_rank_rule_is_relative_above_scale_one_and_absolute_below():
    A = np.diag([1e6, 1.0, 1e-3])
    assert rank(A, 1e-10) == 3
    assert rank(A, 1e-8) == 2  # 1e-3 < 1e-8 * 1e6
    assert rank(1e-11 * np.eye(3), 1e-8) == 0  # absolute below scale 1
    assert rank(unit_rows(1e-11 * np.eye(3)), 1e-8) == 3
    assert rank(np.zeros((0, 4)), 1e-8) == 0


def test_orthonormal_rows_spans_the_rows():
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    Q = orthonormal_rows(A)
    assert Q.shape == (2, 3)
    assert np.allclose(Q @ Q.T, np.eye(2))
    assert np.allclose(A - (A @ Q.T) @ Q, 0.0)
    assert orthonormal_rows(np.zeros((0, 3))).shape == (0, 3)


def test_left_nullspace():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    C = left_nullspace(A)
    assert C.shape == (1, 3)
    assert np.allclose(C @ A, 0.0)
    assert np.allclose(C @ C.T, np.eye(1))
    assert np.allclose(left_nullspace(np.zeros((2, 0))), np.eye(2))
    assert left_nullspace(np.eye(3)).shape == (0, 3)


def test_complement_rows():
    rows = orthonormal_rows(np.array([[1.0, 1.0, 0.0]]))
    perp = complement_rows(rows, 3)
    assert perp.shape == (2, 3)
    full = np.vstack([rows, perp])
    assert np.allclose(full @ full.T, np.eye(3))
    assert np.allclose(complement_rows(np.zeros((0, 3)), 3), np.eye(3))


def test_generic_draws_draws_two_unit_combinations_in_stream_order():
    basis = np.eye(4)[:2]
    out = generic_draws(random.Random(5), basis, lambda xi: xi[None], 1e-8)
    rng = random.Random(5)
    assert len(out) == 2
    for xi, d, moved in out:
        coeff = np.array([rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])
        assert np.allclose(xi, (coeff / np.linalg.norm(coeff)) @ basis)
        assert d == 1 and np.array_equal(moved, xi[None])


def test_generic_draws_of_different_rank_raise_naming_both_ranks():
    # the rank of act(xi) is 1 where xi[0] > 0 and 0 elsewhere; under seed 0
    # the first draw has xi[0] > 0 and the second xi[0] < 0
    def act(xi):
        return xi[None] if xi[0] > 0 else np.zeros((1, len(xi)))

    with pytest.raises(ConsistencyError, match="two generic draws give ranks 1 and 0"):
        generic_draws(random.Random(0), np.eye(3)[:2], act, 1e-8)
    assert ConsistencyError is chpolar.su1n.ConsistencyError is chpolar.ConsistencyError


# --- rank decisions do not depend on the scale of the input -------------------------


def _u2(scale):
    return [scale * N for N in kahler.skew_hermitian_basis(2)]


def _line(m):
    return RealSubspace(m, [np.eye(m, dtype=complex)[0]])


def _family_II(scale):
    return PolarActionSpec(n=3, family="II", b_flag="zero", q_basis=_u2(scale),
                           q_section=_line(2))


def _family_I(scale):
    return PolarActionSpec(n=3, family="I", k=1, q_basis=_u2(scale), q_section=_line(2))


@pytest.mark.parametrize("scale", SCALES)
def test_polar_family_II_verdict_at_every_scale(scale):
    report = check_polarity(*build_action(_family_II(scale)))
    assert report.verdict and report.slice_condition
    assert (report.dim_normal, report.cohomogeneity, report.dim_isotropy_orbit) == (5, 2, 3)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("make", [_family_I, _family_II])
def test_compare_a_spec_with_its_rescaled_copy_says_yes(make, scale):
    answer, report = orbit_equivalence_invariants(make(1.0), make(scale))
    assert answer == "yes", report


@pytest.mark.parametrize("scale", SCALES)
def test_regular_vectors_at_every_scale(scale):
    out = regular_vectors(_u2(scale), RealSubspace.zero(2), _line(2), samples=10, seed=1)
    assert [flag for _, flag in out] == [True] * 10


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("xi_scale", SCALES)
def test_isotropy_dimension_at_every_scale(scale, xi_scale):
    xi = xi_scale * np.array([1.0, 0.0], dtype=complex)
    assert len(isotropy_at(3, _u2(scale), xi)) == 1


@pytest.mark.parametrize("scale", SCALES)
def test_real_subspace_dimension_at_every_scale(scale):
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert RealSubspace(2, [scale * e1, scale * 1j * e1]).dim == 2


@pytest.mark.parametrize("scale", SCALES)
def test_decompose_moduli_at_every_scale(scale):
    V = random_subspace(3, [(math.pi / 5, 2), (math.pi / 2, 1)], np.random.default_rng(4))
    got = kahler.decompose(RealSubspace(3, scale * V.basis)).moduli()
    want = kahler.decompose(V).moduli()
    assert [d for _, d in got] == [d for _, d in want]
    assert np.allclose([a for a, _ in got], [a for a, _ in want], rtol=0.0, atol=1e-12)


def _family_II_with_w(scale):
    w = kahler.canonical_subspace(3, [(math.pi / 3, 2)])
    section = normalizer_section(w)
    return PolarActionSpec(n=4, family="II", b_flag="zero",
                           w=RealSubspace(3, scale * w.basis),
                           q_basis=kahler.normalizer_algebra(w),
                           q_section=RealSubspace(3, scale * section.basis))


@pytest.mark.parametrize("scale", SCALES)
def test_family_II_with_rescaled_w_and_section_at_every_scale(scale):
    report = check_polarity(*build_action(_family_II_with_w(scale)))
    reference = check_polarity(*build_action(_family_II_with_w(1.0)))
    assert reference.verdict and reference.dim_normal == 7 - 2
    assert (report.verdict, report.dim_normal) == (reference.verdict, reference.dim_normal)


def test_u_frame_rejects_a_tiny_hermitian_matrix():
    hermitian = np.diag([1e-12, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        u_frame(hermitian[None], 3)
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        isotropy_at(3, [hermitian], np.array([1.0, 0.0], dtype=complex))


def test_u_frame_accepts_a_tiny_skew_hermitian_matrix():
    rows = u_frame(np.diag([1e-12j, 0.0])[None], 3)
    assert rows.shape == (1, 4)
    T = traceless_block(3, u_matrices(rows, 2, 3))[0]
    assert np.abs(T + T.conj().T).max() == 0.0


@pytest.mark.parametrize("scale", (1e-12, 1e-6, 1.0, 1e6))
@pytest.mark.parametrize("n", (2, 3, 5))
def test_u_frame_rows_are_orthonormal_in_su1n_at_every_scale(n, scale):
    m = n - 1
    rng = np.random.default_rng(n)
    A = rng.standard_normal((m * m, m, m)) + 1j * rng.standard_normal((m * m, m, m))
    q = scale * (A - A.conj().transpose(0, 2, 1))[:max(1, m * m - 1)]
    X = traceless_block(n, u_matrices(u_frame(q, n), m, n))
    assert len(X) == len(q)
    gram = np.array([[su1n_inner(a, b) for b in X] for a in X])
    assert np.abs(gram - np.eye(len(X))).max() <= 1e-12


# --- one home for SVD rank and null-space decisions ---------------------------------


def test_svd_appears_only_in_the_kernel():
    src = pathlib.Path(chpolar.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "linalg.svd" in p.read_text())
    assert users == ["_linalg.py"]


def test_no_hand_written_orthonormalization_returns():
    src = pathlib.Path(chpolar.__file__).parent
    gone = ("_mgs", "re_inner", "_complex_onb_of_complex_subspace", "_complete_to_unitary")
    found = sorted((p.name, name) for p in src.glob("*.py") for name in gone
                   if name in p.read_text())
    assert found == []


# --- test oracles stay out of the package ----------------------------------------------


def test_every_name_the_benchmark_traces_resolves():
    """perfbench/trace_op.py wraps these names by getattr: each must stay
    in its module, or the traced benchmark run fails."""
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))
    try:
        import trace_op
    finally:
        sys.path.pop(0)
    missing = [(layer, name) for layer, names in trace_op.WRAPPED.items() for name in names
               if not callable(getattr(importlib.import_module(f"chpolar.{layer}"), name, None))]
    assert missing == []


def test_the_package_exports_no_test_oracle():
    assert chpolar.__all__ == [
        "ConsistencyError", "KahlerDecomposition", "OrbitModel", "PolarActionSpec",
        "PolarityReport", "RealSubspace", "RootDecomposition", "an_bracket", "an_vector",
        "bracket", "build_family_I", "build_family_II", "build_root_decomposition",
        "check_polarity", "check_spec", "congruent", "curvature", "decompose",
        "enumerate_moduli", "inner", "inner_an", "levi_civita", "make_constant_angle",
        "mean_curvature", "mean_curvature_closed_form", "normalizer_algebra", "ominus",
        "orbit_equivalence_invariants", "shape_operator", "theta",
    ]
    assert all(hasattr(chpolar, name) for name in chpolar.__all__)


def test_scipy_appears_nowhere_in_the_package():
    src = pathlib.Path(chpolar.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "scipy" in p.read_text())
    assert users == []
