import math

import numpy as np
import pytest

from chpolar import angeom, kahler
from chpolar._linalg import complex_rows, real_rows
from chpolar.angeom import (
    OrbitModel,
    an_bracket,
    an_json,
    an_vector,
    complex_structure,
    curvature,
    holomorphic_sectional_curvature,
    inner_product,
    levi_civita,
    mean_curvature,
    mean_curvature_closed_form,
    norm,
    sectional_curvature,
    shape_operator,
)
from chpolar.su1n import (ConsistencyError, bracket, build_root_decomposition, galpha_matrices,
                          theta, traceless_block)
from chpolar.su1n import norm as su_norm
from oracles import LineOrbit, ad, conjugate_subalgebra, isotropy_at


def rand_vec(n, rng):
    return an_vector(
        rng.standard_normal(),
        rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
        rng.standard_normal(),
    )


def galpha(u):
    """X(u)/2 in g_a for u in C^{n-1}."""
    return galpha_matrices(np.asarray(u, dtype=complex)[None])[0]


def coords(rd, X):
    return rd.coords_many(X[None])[0]


def to_matrix(rd, v):
    return v[0].real * rd.B + galpha(v[1:]) + v[0].imag * rd.Z


def basis_B(n):
    return an_vector(1.0, np.zeros(n - 1), 0.0)


def basis_Z(n):
    return an_vector(0.0, np.zeros(n - 1), 1.0)


def from_galpha(u):
    return an_vector(0.0, u, 0.0)


# --- connection -----------------------------------------------------------------


def test_connection_B_B_vanishes():
    n = 3
    B = basis_B(n)
    assert norm(levi_civita(B, B)) == 0.0


def test_connection_Z_Z_is_B():
    n = 3
    Z = basis_Z(n)
    out = levi_civita(Z, Z)
    assert out[0].real == pytest.approx(1.0) and norm(out - basis_B(n)) < 1e-14


def test_connection_U_U():
    n = 4
    u = np.array([1.0 + 2.0j, 0.5j, -1.0])
    U = from_galpha(u)
    out = levi_civita(U, U)
    assert out[0].real == pytest.approx(0.5 * inner_product(U, U))
    assert np.abs(out[1:]).max() < 1e-14 and out[0].imag == 0.0


def test_torsion_free():
    rng = np.random.default_rng(0)
    for _ in range(50):
        X, Y = rand_vec(3, rng), rand_vec(3, rng)
        t = levi_civita(X, Y) - levi_civita(Y, X) - an_bracket(X, Y)
        assert norm(t) < 1e-10


def test_metric_compatibility():
    rng = np.random.default_rng(1)
    for _ in range(50):
        X, Y, W = (rand_vec(3, rng) for _ in range(3))
        resid = inner_product(levi_civita(X, Y), W) + inner_product(Y, levi_civita(X, W))
        assert abs(resid) < 1e-10 * max(1.0, norm(X) * norm(Y) * norm(W))


def test_an_bracket_matches_ambient_commutator():
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        X, Y = rand_vec(3, rng), rand_vec(3, rng)
        lhs = to_matrix(rd, an_bracket(X, Y))
        rhs = bracket(to_matrix(rd, X), to_matrix(rd, Y))
        assert su_norm(lhs - rhs) < 1e-10


# --- curvature -----------------------------------------------------------------


def test_sectional_curvature_of_B_Z_plane():
    n = 3
    B, Z = basis_B(n), basis_Z(n)
    assert sectional_curvature(B, Z) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e-3, 1.0, 1e3, 1e6])
def test_sectional_curvature_tests_for_a_plane_at_any_scale(scale):
    X = an_vector(0.3, np.array([0.2 + 0.1j, -0.4j]), 0.5)
    assert holomorphic_sectional_curvature(scale * X) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="do not span a plane"):
        sectional_curvature(scale * X, -2.5 * scale * X)


def test_curvature_antisymmetry():
    rng = np.random.default_rng(3)
    X, Y, Z, W = (rand_vec(3, rng) for _ in range(4))
    assert curvature(X, Y, Z, W) == pytest.approx(-curvature(Y, X, Z, W), abs=1e-9)


def test_holomorphic_sectional_curvature_is_minus_one():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for _ in range(30):
            X = rand_vec(n, rng)
            assert holomorphic_sectional_curvature(X) == pytest.approx(-1.0, abs=1e-7)


def test_complex_structure_squares_to_minus_one():
    rng = np.random.default_rng(5)
    X = rand_vec(3, rng)
    assert norm(complex_structure(complex_structure(X)) + X) < 1e-14


# --- orbits and shape operators ---------------------------------------------------


def line_orbit(n=3, a=1.0, m=1):
    # tangent R(aB + X) + w + g_2a with X = e1, w = span{e2, ...}
    x_vec = np.zeros(n - 1, dtype=complex)
    x_vec[0] = 1.0
    eye = np.eye(n - 1, dtype=complex)
    w = [eye[1 + j] for j in range(m)]
    return LineOrbit(n, a, x_vec, w)


def test_orbit_requires_orthogonal_X():
    with pytest.raises(ValueError):
        LineOrbit(3, 1.0, np.array([1.0, 0]), [np.array([1.0, 0])])


@pytest.mark.parametrize("a", [1e-13, 1e-11, 1.0, 1e6])
@pytest.mark.parametrize("x_scale", [0.0, 1.0])
def test_line_orbit_at_any_scale(a, x_scale):
    # aB + X and X against w are judged relative to their own size
    w = [np.array([1.0 + 0j, 0.0])]
    orb = LineOrbit(3, a, np.array([0.0, x_scale * a], dtype=complex), w)
    closed = orb.mean_curvature_closed_form()
    assert norm(mean_curvature(orb) - closed) <= 1e-12 * max(1.0, norm(closed))


@pytest.mark.parametrize("x_scale", [0.0, 1.0])
def test_line_orbit_below_the_square_root_of_the_smallest_double(x_scale):
    # a^2 underflows at a = 1e-170; norm scales by a power of two first
    a = 1e-170
    orb = LineOrbit(3, a, np.array([0.0, x_scale * a], dtype=complex))
    lead = an_vector(1.0, [0.0, x_scale], 0.0) / math.hypot(1.0, x_scale)
    assert norm(orb.tangent[0] - lead) < 1e-15
    closed = orb.mean_curvature_closed_form()
    assert norm(mean_curvature(orb) - closed) <= 1e-12 * max(1.0, norm(closed))


def test_orbit_errors_name_the_measured_number(monkeypatch):
    with pytest.raises(ValueError,
                       match=r"orthogonal to w \(\|Re<w, X>\| / \(\|w\|\|X\|\) = 0.707 > 1e-9\)"):
        LineOrbit(3, 1.0, np.array([1.0, 1.0], dtype=complex), [np.array([2.0 + 0j, 0.0])])
    # a normal space one short of the complement builds, and fails the
    # dimension count that test_orbit_model_is_a_subalgebra_filled_by_its_normal asserts
    full = angeom.orthonormal_rows
    monkeypatch.setattr(angeom, "orthonormal_rows", lambda A: full(A)[1:])
    orb = line_orbit(3, a=1.0, m=1)
    assert (len(orb.tangent), len(orb.normal)) == (3, 2)


def test_orbit_rejects_non_orthogonal_X_at_small_scale():
    with pytest.raises(ValueError, match="orthogonal"):
        LineOrbit(3, 1e-11, np.array([1e-11, 1e-11], dtype=complex), [np.array([1.0 + 0j, 0.0])])


def test_orbit_tangent_is_subalgebra():
    orb = line_orbit(4, a=0.7, m=2)
    assert len(orb.tangent) == 1 + 2 + 1
    assert len(orb.normal) == 2 * 4 - 4


def subalgebra_residual(tangent):
    """The largest part |[s, t] - P_T [s, t]| outside the span of the
    AN-orthonormal rows ``tangent``, over every pair of rows."""
    T = real_rows(tangent)
    brackets = real_rows(np.array([an_bracket(s, t) for s in tangent for t in tangent]))
    return float(np.linalg.norm(brackets - brackets @ T.T @ T, axis=1).max(initial=0.0))


def random_line_data(n, m, rng):
    """A unit X in g_a and m orthonormal rows of w orthogonal to it."""
    q, _ = np.linalg.qr(rng.standard_normal((2 * (n - 1), m + 1)))
    rows = complex_rows(q.T, n - 1)
    return rows[0], list(rows[1:])


def random_orbits(n, kind, rng):
    """Orbits of ``kind`` with dim w in {0, some, all it may take}, and for
    the line kind a and X at every scale from 1e-6 to 1e6."""
    top = 2 * (n - 1) - (kind == "line")
    for m in sorted({0, int(rng.integers(0, top + 1)), top}):
        if kind != "line":
            yield OrbitModel.from_flag(n, kind[len("flag_"):], random_line_data(n, m, rng)[1])
            continue
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            x_vec, w = random_line_data(n, m, rng)
            yield LineOrbit(n, scale * rng.standard_normal(),
                            scale * rng.standard_normal() * x_vec, w)


@pytest.mark.parametrize("kind", ["line", "flag_zero", "flag_full"])
@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_orbit_model_is_a_subalgebra_filled_by_its_normal(n, kind):
    # [a, n] <= n and [g_a, g_a] <= g_2a: both shapes are subalgebras of
    # a + n for every input, and tangent and normal together fill a + n
    rng = np.random.default_rng(300 + n)
    for orb in random_orbits(n, kind, rng):
        assert subalgebra_residual(orb.tangent) <= 1e-10
        assert len(orb.tangent) + len(orb.normal) == 2 * n
        frame = real_rows(np.concatenate([orb.tangent, orb.normal]))
        assert np.abs(frame @ frame.T - np.eye(2 * n)).max() <= 1e-9


@pytest.mark.parametrize("kind", ["line", "flag_zero", "flag_full"])
@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_shape_operator_is_self_adjoint_on_every_normal(n, kind):
    rng = np.random.default_rng(400 + n)
    for orb in random_orbits(n, kind, rng):
        for eta in orb.normal:
            S = shape_operator(orb, eta)
            assert np.abs(S - S.T).max() <= 1e-9


def test_shape_operator_leading_direction():
    # S_xi(aB + X) = (|X| / (2 sqrt(a^2 + |X|^2))) (aB + X) for the unit
    # normal xi along |X|^2 B - a X
    n, a = 3, 1.3
    orb = line_orbit(n, a=a, m=1)
    xsq = 1.0
    xi = an_vector(xsq, -a * orb.x_vec, 0.0)
    xi = (1.0 / norm(xi)) * xi
    S = shape_operator(orb, xi)
    lead = orb.tangent[0]
    expect = math.sqrt(xsq) / (2 * math.sqrt(a * a + xsq))
    col = S[:, 0]
    assert col[0] == pytest.approx(expect, abs=1e-12)
    assert np.abs(col[1:]).max() < 1e-12


def test_shape_operator_trace_for_galpha_normals_vanishes():
    n = 4
    orb = line_orbit(n, a=0.9, m=1)
    # normals inside g_a minus (w + R X)
    for eta in orb.normal:
        if abs(eta[0].real) < 1e-12 and abs(eta[0].imag) < 1e-12:
            S = shape_operator(orb, eta)
            assert abs(np.trace(S)) < 1e-10


def test_shape_operator_self_adjoint_and_input_validation():
    orb = line_orbit(3, a=1.0, m=1)
    with pytest.raises(ValueError):
        shape_operator(orb, orb.tangent[0])  # tangent, not normal
    with pytest.raises(ValueError):
        shape_operator(orb, 2.0 * orb.normal[0])  # not unit
    S = shape_operator(orb, orb.normal[0])
    assert np.abs(S - S.T).max() < 1e-9


def test_errors_name_the_residual_and_the_bound():
    orb = line_orbit(3, a=1.0, m=1)
    with pytest.raises(ValueError, match=r"not normal to the orbit \(tangential part 1 > 1e-09\)"):
        shape_operator(orb, orb.tangent[0])
    with pytest.raises(ValueError, match=r"unit normal vector \(\|\|xi\| - 1\| = 1 > 1e-09\)"):
        shape_operator(orb, 2.0 * orb.normal[0])
    with pytest.raises(ValueError, match=r"orthonormalize \(max \|G - 1\| = 3 > 1e-9\)"):
        OrbitModel.from_flag(3, "zero", [np.array([0, 2.0 + 0j])])
    e1 = np.array([1.0 + 0j, 0.0])
    # the residual that test_orbit_model_is_a_subalgebra_filled_by_its_normal
    # bounds by 1e-10 reads 1 on [U, JU] = Z
    assert subalgebra_residual(np.array([from_galpha(e1), from_galpha(1j * e1)])) \
        == pytest.approx(1.0, abs=1e-15)
    rd = build_root_decomposition(3)
    origin = an_vector(0.0, np.zeros(2, dtype=complex), 0.0)
    with pytest.raises(ConsistencyError, match=r"n \(part outside / \|X\| = 1 > 1e-09\)"):
        conjugate_subalgebra(3, theta(rd.Z)[None], origin)


def test_totally_geodesic_case_has_zero_shape_trace():
    # h = a + g_2a: minimal (0 mean curvature) per the b = a case
    orb = OrbitModel.from_flag(3, "full", [])
    H = mean_curvature(orb)
    assert norm(H) < 1e-12


# --- mean curvature -----------------------------------------------------------------


def test_mean_curvature_b_equals_a_vanishes():
    for m in (0, 1, 2):
        eye = np.eye(3, dtype=complex)
        orb = OrbitModel.from_flag(4, "full", [eye[j] for j in range(m)])
        assert norm(mean_curvature(orb)) < 1e-10
        assert norm(mean_curvature_closed_form(orb)) == 0.0


def test_mean_curvature_b_zero_formula():
    for m in (0, 1, 2):
        eye = np.eye(3, dtype=complex)
        orb = OrbitModel.from_flag(4, "zero", [eye[j] for j in range(m)])
        H = mean_curvature(orb)
        want = an_vector(0.5 * (2 + m), np.zeros(3, dtype=complex), 0.0)
        assert norm(H - want) < 1e-10
        assert norm(mean_curvature_closed_form(orb) - want) == 0.0


def test_mean_curvature_generic_line_case():
    # a = 1, |X| = 1, dim w = m: H = ((3 + m)/4)(B - X)
    n = 4
    for m in (0, 1, 2):
        orb = line_orbit(n, a=1.0, m=m)
        H = mean_curvature(orb)
        want = an_vector((3 + m) / 4.0, -(3 + m) / 4.0 * orb.x_vec, 0.0)
        assert norm(H - want) < 1e-9
        assert norm(orb.mean_curvature_closed_form() - want) < 1e-12


def test_mean_curvature_trace_matches_closed_form_randomized():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = float(rng.standard_normal())
        x_vec = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        if abs(a) < 1e-3 and np.linalg.norm(x_vec) < 1e-3:
            a = 1.0
        # w orthogonal to X: complete X to an orthonormal set and drop it
        rows = [x_vec] + [
            rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            for _ in range(int(rng.integers(0, n - 1)))
        ]
        sub = kahler.RealSubspace(n - 1, rows)
        w = [b for b in sub.basis[1:]]
        orb = LineOrbit(n, a, sub.basis[0] * np.linalg.norm(x_vec), w)
        diff = mean_curvature(orb) - orb.mean_curvature_closed_form()
        assert norm(diff) < 1e-9


def test_unsupported_shape_raises():
    with pytest.raises(ValueError):
        OrbitModel.from_flag(3, "half", [])
    with pytest.raises(ValueError):
        LineOrbit(3, 0.0, np.zeros(2, dtype=complex), [])
    with pytest.raises(ValueError, match="flag orbits"):
        mean_curvature_closed_form(line_orbit())  # the package's closed form is the flag one


# --- isotropy ------------------------------------------------------------------------


def isotropy_dim_oracle(rd, q_mats, xi_mat):
    """Independent route: dim(span q cap ker ad(xi)) from the rank identity
    dim(A cap B) = dim A + dim B - dim(A + B)."""
    A = rd.coords_many(np.array(q_mats))
    sA = np.linalg.svd(A, compute_uv=False)
    dim_a = int(np.sum(sA > 1e-9 * max(1.0, sA[0])))
    M = ad(xi_mat)
    u, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    Bn = vh[rank:]
    dim_b = Bn.shape[0]
    stack = np.vstack([A, Bn])
    sS = np.linalg.svd(stack, compute_uv=False)
    dim_sum = int(np.sum(sS > 1e-9 * max(1.0, sS[0])))
    return dim_a + dim_b - dim_sum


def test_isotropy_full_q_at_zero():
    out = isotropy_at(3, kahler.skew_hermitian_basis(2), np.zeros(2, dtype=complex))
    assert len(out) == 4


def test_isotropy_standard_vector():
    for n in (3, 4):
        rd = build_root_decomposition(n)
        e1 = np.zeros(n - 1, dtype=complex)
        e1[0] = 1.0
        out = isotropy_at(n, kahler.skew_hermitian_basis(n - 1), e1)
        assert len(out) == (n - 2) ** 2
        for T in out:
            assert su_norm(bracket(T, galpha(e1))) < 1e-9


def test_isotropy_center_acts_freely():
    out = isotropy_at(3, [1j * np.eye(2)], np.array([1.0 + 0j, 0.0]))
    assert out.shape == (0, 4, 4)


def test_isotropy_and_conjugation_return_stacks():
    rd = build_root_decomposition(3)
    assert isotropy_at(3, [], np.zeros(2, dtype=complex)).shape == (0, 4, 4)
    assert conjugate_subalgebra(3, np.zeros((0, 4, 4)), rand_vec(3, np.random.default_rng(0))).shape \
        == (0, 4, 4)
    assert conjugate_subalgebra(3, rd.B[None], from_galpha(np.zeros(2))).shape == (1, 4, 4)
    with pytest.raises(ValueError, match=r"expected vector in C\^2"):
        isotropy_at(3, kahler.skew_hermitian_basis(2), np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="not skew-Hermitian"):
        isotropy_at(3, [np.eye(2)], np.zeros(2, dtype=complex))
    with pytest.raises(ValueError, match="need n >= 2"):
        isotropy_at(1, [], np.zeros(0, dtype=complex))


def test_isotropy_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        rd = build_root_decomposition(n)
        gens = kahler.skew_hermitian_basis(n - 1)
        size = int(rng.integers(1, len(gens) + 1))
        picks = rng.choice(len(gens), size=size, replace=False)
        q = [gens[i] for i in picks]
        xi_vec = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        got = len(isotropy_at(n, q, xi_vec))
        want = isotropy_dim_oracle(rd, traceless_block(n, np.array(q)), galpha(xi_vec))
        assert got == want


# --- conjugation ----------------------------------------------------------------------


def test_conjugate_by_identity_fixes_subalgebra():
    rd = build_root_decomposition(3)
    h = np.array([rd.B, rd.Z])
    out = conjugate_subalgebra(3, h, an_vector(0.0, np.zeros(2, dtype=complex), 0.0))
    before = rd.coords_many(h)
    u, s, vh = np.linalg.svd(before)
    span = vh[:2]
    for el in out:
        v = coords(rd, el)
        assert np.linalg.norm(v - span.T @ (span @ v)) < 1e-10


def test_w_plus_center_is_AN_invariant():
    rd = build_root_decomposition(3)
    h = np.array([galpha(np.array([0, 1.0 + 0j])), rd.Z])
    rng = np.random.default_rng(9)
    g_exp = rand_vec(3, rng)
    out = conjugate_subalgebra(3, h, g_exp)
    before = rd.coords_many(h)
    u, s, vh = np.linalg.svd(before)
    span = vh[:2]
    for el in out:
        v = coords(rd, el)
        assert np.linalg.norm(v - span.T @ (span @ v)) < 1e-9


def test_conjugating_a_w_g2a_tilts_the_line():
    # h = a + w + g_2a moved by exp(X0) with X0 orthogonal to w: the a + n
    # projection becomes R(B + X') + w + g_2a with X' in g_a minus w.
    rd = build_root_decomposition(3)
    w_vec = np.array([0, 1.0 + 0j])
    x0 = np.array([1.0 + 0j, 0])  # orthogonal to w
    h = np.array([rd.B, galpha(w_vec), rd.Z])
    out = conjugate_subalgebra(3, h, from_galpha(x0))
    # direct expansion oracle: Ad(exp X0) B = B - X0/2 exactly (nilpotency)
    want_lead = rd.B - 0.5 * galpha(x0)
    rows = rd.coords_many(out)
    u, s, vh = np.linalg.svd(rows)
    span = vh[:3]
    for target in (want_lead, galpha(w_vec), rd.Z):
        v = coords(rd, target)
        assert np.linalg.norm(v - span.T @ (span @ v)) < 1e-9 * max(1.0, np.linalg.norm(v))


def test_json_roundtrip():
    # the keys that `chpolar curvature` prints, and the vector read back from them
    v = an_vector(0.5, np.array([1.0 - 2.0j]), -0.25)
    data = an_json(v)
    assert data == {"a_part": 0.5, "u_part": [[1.0, -2.0]], "z_part": -0.25}
    w = an_vector(data["a_part"], [complex(re, im) for re, im in data["u_part"]], data["z_part"])
    assert norm(v - w) < 1e-15
