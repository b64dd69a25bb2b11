import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chpolar import kahler, polar
from chpolar._linalg import left_nullspace
from chpolar.kahler import RealSubspace
from oracles import (complex_span, contains, kahler_angle, normalizer_dimension_formula, project,
                     random_subspace, same_matrix_span, same_span)


# --- independent oracles ----------------------------------------------------


def angle_by_definition(basis_rows, v):
    """Kahler angle straight from the definition, using lstsq projection
    onto the realified span (independent of the library's projection code)."""
    A = np.array([np.concatenate([b.real, b.imag]) for b in basis_rows]).T
    jv = 1j * np.asarray(v)
    rhs = np.concatenate([jv.real, jv.imag])
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    proj = A @ coef
    return math.acos(min(1.0, np.linalg.norm(proj) / np.linalg.norm(v)))


def realified_matrix(N):
    """Real 2m x 2m matrix of the complex-linear map N on [Re v; Im v]."""
    return np.block([[N.real, -N.imag], [N.imag, N.real]])


def normalizer_dim_oracle(V):
    """Brute-force dim{T in u(m): T.V <= V} via realified projector algebra."""
    m = V.ambient_complex_dim
    P = np.zeros((2 * m, 2 * m))
    for b in V.basis:
        hb = np.concatenate([b.real, b.imag])
        P += np.outer(hb, hb)
    gens = kahler.skew_hermitian_basis(m)
    rows = []
    for N in gens:
        R = realified_matrix(N)
        constraint = (np.eye(2 * m) - P) @ R @ P
        rows.append(constraint.reshape(-1))
    A = np.array(rows).T
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0)))
    return len(gens) - rank


def normalizer_algebra_loop(V):
    """The normalizer {T in u(m) : T.V <= V} one generator and one basis row
    at a time: T b minus its projection Re<T b, b_j> b_j onto V, stacked per
    T, then the left null space of those constraint rows."""
    m = V.ambient_complex_dim
    gens = kahler.skew_hermitian_basis(m)
    if V.dim == 0 or V.dim == 2 * m:
        return gens
    rows = []
    for T in gens:
        resid = []
        for b in V.basis:
            r = T @ b
            r = r - sum(float(np.real(np.vdot(bj, r))) * bj for bj in V.basis)
            resid.append(np.concatenate([r.real, r.imag]))
        rows.append(np.concatenate(resid))
    null = left_nullspace(np.array(rows))
    return [sum(c * g for c, g in zip(coeffs, gens)) for coeffs in null]


def sample_unit(sub, rng):
    coef = rng.standard_normal(sub.dim)
    coef /= np.linalg.norm(coef)
    return coef @ sub.basis


# --- kahler_angle ------------------------------------------------------------


def test_angle_complex_line_is_zero():
    V = RealSubspace(2, [np.array([1, 0]), np.array([1j, 0])])
    assert kahler_angle(V, np.array([1, 0])) == pytest.approx(0.0, abs=1e-12)


def test_angle_totally_real_plane_is_pi_over_2():
    V = RealSubspace(2, [np.array([1, 0]), np.array([0, 1])])
    assert kahler_angle(V, np.array([1, 0])) == pytest.approx(math.pi / 2)


def test_angle_half_angle_construction_gives_pi_over_3():
    # plane spanned by cos(pi/6) e1 + sin(pi/6) J f1 and cos(pi/6) J e1 + sin(pi/6) f1
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    v1 = np.array([c, 1j * s])
    v2 = np.array([1j * c, s])
    V = RealSubspace(2, [v1, v2])
    assert kahler_angle(V, v1) == pytest.approx(math.pi / 3, abs=1e-12)
    assert kahler_angle(V, v2) == pytest.approx(math.pi / 3, abs=1e-12)


def test_angle_rejects_zero_and_nonmembers():
    V = RealSubspace(2, [np.array([1, 0])])
    with pytest.raises(ValueError):
        kahler_angle(V, np.zeros(2))
    with pytest.raises(ValueError):
        kahler_angle(V, np.array([0, 1.0]))


@pytest.mark.parametrize("s", [1.0, 1e-150, 1e-170, 1e-300, 1e150])
def test_membership_and_angle_do_not_depend_on_the_scale_of_v(s):
    e1, e2 = np.eye(2, dtype=complex)
    V = RealSubspace(2, [e1])
    assert contains(V, s * e1)
    assert not contains(V, s * e2) and not contains(V, s * 1j * e1)
    assert kahler_angle(V, s * e1) == pytest.approx(math.pi / 2, abs=1e-12)
    line = RealSubspace(2, [e1, 1j * e1])
    assert kahler_angle(line, s * e1) == pytest.approx(0.0, abs=1e-12)


# --- decompose ----------------------------------------------------------------


def test_decompose_full_space_single_complex_factor():
    dec = kahler.decompose(RealSubspace.full(2))
    assert dec.moduli() == [(0.0, 4)]


def test_decompose_totally_real_plane():
    V = RealSubspace(2, [np.array([1, 0]), np.array([0, 1])])
    assert kahler.decompose(V).moduli() == [(math.pi / 2, 2)]


def test_decompose_zero_subspace_is_empty():
    assert kahler.decompose(RealSubspace.zero(3)).factors == ()


def test_decompose_mixed_complex_plus_real_line():
    # C e1 + R e2; per-vector angles frozen from the sampling oracle
    V = RealSubspace(2, [np.array([1, 0]), np.array([1j, 0]), np.array([0, 1])])
    dec = kahler.decompose(V)
    assert [(round(a, 12), d) for a, d in dec.moduli()] == [(0.0, 2), (round(math.pi / 2, 12), 1)]
    rng = np.random.default_rng(7)
    for phi, sub in dec.factors:
        for _ in range(25):
            v = sample_unit(sub, rng)
            # arccos resolves angles near the endpoints only to sqrt(eps)
            assert angle_by_definition(sub.basis, v) == pytest.approx(phi, abs=1e-6)


def test_check_decomposition_names_the_cross_factor_product():
    e1, e2 = np.eye(2, dtype=complex)
    dec = kahler.KahlerDecomposition(((0.0, RealSubspace(2, [e1, 1j * e1])),
                                      (math.pi / 2, RealSubspace(2, [e1 + e2]))))
    with pytest.raises(ValueError, match=r"not orthogonal \(max \|<a, b>\| = 0.707 > 1e-08\)"):
        kahler._check_decomposition(dec)


# moduli in C^m, m >= 4, whose angles sit where decompose is least sure:
# about pi/4, where it switches from the sine to the cosine, near 0 and
# pi/2, where it snaps, and pairs that TOL_ANGLE = 1.2e-8 groups
CLOSE_MODULI = [
    [(math.pi / 4 - 1e-9, 2), (math.pi / 4 + 1e-9, 2)],
    [(math.pi / 4, 2), (math.pi / 4 + 1e-5, 2)],
    [(math.pi / 4 - 1e-5, 2), (math.pi / 4 + 1e-5, 2)],
    [(5e-9, 2), (0.5, 2)],
    [(1e-7, 2), (0.5, 2)],
    [(0.0, 2), (math.pi / 2 - 1e-7, 2), (math.pi / 2, 1)],
    [(math.pi / 2 - 5e-9, 2), (math.pi / 2, 2)],
]


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_decompose_dimensions_sum_and_angles_strictly_increase(m):
    # both hold by construction, so decompose does not check them
    rng = np.random.default_rng(600 + m)
    spaces = [RealSubspace(m, rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
              for d in range(2 * m + 1)]
    if m >= 4:
        spaces += [random_subspace(m, moduli, rng) for moduli in CLOSE_MODULI]
    if m >= 6:
        spaces.append(random_subspace(m, [(0.3, 2), (0.3 + 5e-9, 2), (0.3 + 1e-8, 2)], rng))
    for V in spaces:
        dec = kahler.decompose(V)
        assert sum(dec.dimensions()) == V.dim
        angles = dec.angles()
        assert all(a < b for a, b in zip(angles, angles[1:])), angles


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="complex spans of factors are not orthogonal: two pairs 2e-8 apart "
                          "that straddle pi/4 come from the sine and the cosine operator")
def test_decompose_reads_two_pairs_straddling_pi_4_in_a_unitary_frame():
    # a valid subspace, which decompose rejects as an input error (max
    # |<a, b>| = 8.6e-8 at this seed); gaps above 2e-6 decompose
    V = random_subspace(4, [(math.pi / 4 - 1e-8, 2), (math.pi / 4 + 1e-8, 2)],
                        np.random.default_rng(1))
    assert kahler.decompose(V).dimensions() == [2, 2]


def test_decompose_reassembles_projection():
    rng = np.random.default_rng(3)
    V = random_subspace(4, [(0.0, 2), (math.pi / 3, 2), (math.pi / 2, 1)], rng)
    dec = kahler.decompose(V)
    m = V.ambient_complex_dim
    P_V = np.zeros((2 * m, 2 * m))
    for b in V.basis:
        hb = np.concatenate([b.real, b.imag])
        P_V += np.outer(hb, hb)
    P_sum = np.zeros_like(P_V)
    for _, sub in dec.factors:
        for b in sub.basis:
            hb = np.concatenate([b.real, b.imag])
            P_sum += np.outer(hb, hb)
    assert np.abs(P_V - P_sum).max() < 1e-10


def test_decompose_complex_spans_pairwise_orthogonal():
    rng = np.random.default_rng(21)
    V = random_subspace(5, [(0.0, 2), (math.pi / 6, 2), (math.pi / 2, 2)], rng)
    factors = kahler.decompose(V).factors
    for i, (_, a) in enumerate(factors):
        for _, b in factors[i + 1 :]:
            ca = np.vstack([a.basis, 1j * a.basis])
            cb = np.vstack([b.basis, 1j * b.basis])
            assert np.abs(ca.conj() @ cb.T).max() < 1e-10


def test_factor_angle_on_200_samples():
    rng = np.random.default_rng(23)
    V = random_subspace(4, [(math.pi / 7, 2), (math.pi / 2, 1)], rng)
    for phi, sub in kahler.decompose(V).factors:
        for _ in range(200):
            v = sample_unit(sub, rng)
            assert abs(kahler_angle(sub, v) - phi) <= kahler.TOL_ANGLE


# --- make_constant_angle -------------------------------------------------------


def test_make_constant_angle_complex_line():
    V = kahler.make_constant_angle(1, 0.0, 2)
    assert kahler.decompose(V).moduli() == [(0.0, 2)]


def test_make_constant_angle_pi_3():
    V = kahler.make_constant_angle(1, math.pi / 3, 2)
    dec = kahler.decompose(V)
    assert len(dec.factors) == 1
    phi, sub = dec.factors[0]
    assert phi == pytest.approx(math.pi / 3, abs=1e-12) and sub.dim == 2


def test_make_constant_angle_two_pairs_sampling_oracle():
    V = kahler.make_constant_angle(2, math.pi / 4, 4)
    dec = kahler.decompose(V)
    assert len(dec.factors) == 1
    phi, sub = dec.factors[0]
    assert phi == pytest.approx(math.pi / 4, abs=1e-6) and sub.dim == 4
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = sample_unit(V, rng)
        assert angle_by_definition(V.basis, v) == pytest.approx(math.pi / 4, abs=1e-6)


def test_make_constant_angle_pi_2_branch():
    V = kahler.make_constant_angle(3, math.pi / 2, 3)
    assert kahler.decompose(V).moduli() == [(math.pi / 2, 3)]


def test_make_constant_angle_bounds():
    with pytest.raises(ValueError):
        kahler.make_constant_angle(2, math.pi / 3, 3)  # needs ambient >= 4
    with pytest.raises(ValueError):
        kahler.make_constant_angle(1, -0.1, 2)


# --- complex_span / ominus -----------------------------------------------------


def test_complex_span_of_totally_real_doubles_dimension():
    V = kahler.make_constant_angle(3, math.pi / 2, 3)
    assert complex_span(V).dim == 6


def test_complex_span_of_complex_is_itself():
    V = kahler.make_constant_angle(1, 0.0, 2)
    assert same_span(complex_span(V), V)


def test_ominus_complement_has_same_angle():
    # C V minus V has the same dimension and the same constant angle as V
    V = kahler.make_constant_angle(1, math.pi / 3, 2)
    comp = kahler.ominus(complex_span(V), V)
    assert comp.dim == 2
    dec = kahler.decompose(comp)
    assert len(dec.factors) == 1
    assert dec.factors[0][0] == pytest.approx(math.pi / 3, abs=1e-9)


def test_ominus_requires_containment():
    V = RealSubspace(2, [np.array([1, 0])])
    U = RealSubspace(2, [np.array([0, 1])])
    with pytest.raises(ValueError):
        kahler.ominus(V, U)


# --- congruence ----------------------------------------------------------------


def test_congruent_to_itself_with_identity():
    rng = np.random.default_rng(0)
    V = random_subspace(3, [(math.pi / 4, 2), (math.pi / 2, 1)], rng)
    ok, A = kahler.congruent(V, V)
    assert ok
    assert np.abs(A - np.eye(3)).max() < 1e-9


def test_congruent_distinguishes_angles():
    V = kahler.make_constant_angle(1, math.pi / 3, 2)
    W = kahler.make_constant_angle(1, math.pi / 4, 2)
    ok, A = kahler.congruent(V, W)
    assert not ok and A is None


def test_congruent_random_pi_5_subspaces():
    rng = np.random.default_rng(42)
    V = random_subspace(3, [(math.pi / 5, 2)], rng)
    W = random_subspace(3, [(math.pi / 5, 2)], rng)
    ok, A = kahler.congruent(V, W)
    assert ok
    assert np.abs(A @ A.conj().T - np.eye(3)).max() < 1e-9
    for b in V.basis:
        img = A @ b
        assert np.linalg.norm(img - project(W, img)) < 1e-9


def test_congruent_angles_within_tolerance():
    # angles 1e-8 apart are congruent under TOL_ANGLE; each factor is framed
    # with its own angle (framing W with V's angle never exhausted W)
    V = kahler.canonical_subspace(3, [(0.5, 2)])
    W = kahler.canonical_subspace(3, [(0.5 + 1e-8, 2)])
    ok, A = kahler.congruent(V, W)
    assert ok
    assert np.abs(A @ A.conj().T - np.eye(3)).max() < 1e-12
    for b in V.basis:
        img = A @ b
        assert np.linalg.norm(img - project(W, img)) < 1e-7


def test_adapted_frame_at_a_nearby_angle_frames_each_pair():
    # each pair is framed at its own angle, from its own eigenvector, not
    # at the factor angle passed: a frame at 0.5 of a factor at 0.5 + 1e-8
    # would be off by about 1e-8 cot(0.25)
    angle = 0.5 + 1e-8
    W = kahler.canonical_subspace(3, [(angle, 2)])
    F = kahler._adapted_frame(W, 0.5)
    assert np.abs(F @ F.conj().T - np.eye(2)).max() < 1e-12
    e, f = F
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    assert contains(W, c * e + 1j * s * f) and contains(W, 1j * c * e + s * f)


NEAR_ANGLES = [(phi, spread) for phi in (0.5, 0.1, 0.01, 1e-4) for spread in (1e-10, 1e-9, 1e-8)]


@pytest.mark.parametrize("phi, spread", NEAR_ANGLES)
def test_congruent_on_a_factor_grouped_from_near_equal_angles(phi, spread):
    # decompose groups the two pairs into one factor although their angles
    # differ; the witness frames each pair at its own angle
    V = kahler.canonical_subspace(4, [(phi, 2), (phi + spread, 2)])
    W = RealSubspace(4, V.basis @ kahler.haar_unitary(4, np.random.default_rng(7)).T)
    assert len(kahler.decompose(V).factors) == 1
    ok, A = kahler.congruent(V, W)
    assert ok
    assert np.abs(A @ A.conj().T - np.eye(4)).max() < 1e-12
    assert same_span(RealSubspace(4, V.basis @ A.T), W)


def test_same_moduli():
    m = [(0.5, 2), (math.pi / 2, 1)]
    assert kahler.same_moduli(m, [(0.5 + 1e-8, 2), (math.pi / 2, 1)])
    assert not kahler.same_moduli(m, [(0.5 + 1e-5, 2), (math.pi / 2, 1)])
    assert not kahler.same_moduli(m, [(0.5, 2), (math.pi / 2, 2)])
    assert not kahler.same_moduli(m, m[:1])
    assert kahler.same_moduli([], [])


def test_congruent_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        kahler.congruent(RealSubspace.zero(2), RealSubspace.zero(3))


def test_congruent_is_equivalence_on_sample_family():
    rng = np.random.default_rng(5)
    fam = [
        random_subspace(3, [(math.pi / 6, 2)], rng),
        random_subspace(3, [(math.pi / 6, 2)], rng),
        random_subspace(3, [(math.pi / 2, 2)], rng),
        random_subspace(3, [(0.0, 2), (math.pi / 2, 1)], rng),
    ]
    rel = [[kahler.congruent(a, b)[0] for b in fam] for a in fam]
    for i in range(len(fam)):
        assert rel[i][i]
        for j in range(len(fam)):
            assert rel[i][j] == rel[j][i]
            for k in range(len(fam)):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


# --- normalizers ----------------------------------------------------------------


@pytest.mark.parametrize("m", range(6))
def test_skew_hermitian_basis_is_the_generator_loop_as_one_stack(m):
    gens = [1j * np.outer(e, e) for e in np.eye(m)]
    for j in range(m):
        for k in range(j + 1, m):
            for val in (1.0, 1j):
                E = np.zeros((m, m), dtype=complex)
                E[j, k], E[k, j] = val, -np.conj(val)
                gens.append(E)
    got = kahler.skew_hermitian_basis(m)
    assert got.shape == (m * m, m, m) and got.dtype == complex
    assert np.array_equal(got, np.array(gens).reshape(m * m, m, m))


def test_normalizer_totally_real():
    V = kahler.make_constant_angle(3, math.pi / 2, 3)
    alg = kahler.normalizer_algebra(V)
    assert len(alg) == normalizer_dimension_formula(V) == 3  # o(3)
    assert normalizer_dim_oracle(V) == 3


def test_normalizer_full_space():
    V = RealSubspace.full(3)
    assert len(kahler.normalizer_algebra(V)) == 9
    assert normalizer_dimension_formula(V) == 9


def test_normalizer_constant_angle_plane():
    # C V = C^2 leaves no complex complement, so the stabilizer is the
    # unitary group of the single factor: dimension 1 (confirmed by the
    # independent realified oracle).
    V = kahler.make_constant_angle(1, math.pi / 3, 2)
    alg = kahler.normalizer_algebra(V)
    oracle = normalizer_dim_oracle(V)
    assert oracle == 1
    assert len(alg) == normalizer_dimension_formula(V) == oracle


def test_normalizer_closed_under_action():
    # the u(1) of the complement of C.V kills V, so T b is rounding noise
    # there, and contains() would scale it to a unit vector: the part of
    # T b outside V is measured against |T| |b| = |T| instead, at 1e-12, no
    # looser than TOL_MEMBER |T b| wherever |T b| >= 1e-4 |T|
    rng = np.random.default_rng(9)
    V = random_subspace(3, [(math.pi / 3, 2)], rng)
    for T in kahler.normalizer_algebra(V):
        for b in V.basis:
            assert np.linalg.norm(T @ b - project(V, T @ b)) <= 1e-12 * np.linalg.norm(T)


def test_normalizer_formula_matches_oracle_on_random_subspaces():
    rng = np.random.default_rng(17)
    moduli_pool = [
        [(0.0, 2)],
        [(math.pi / 2, 2)],
        [(math.pi / 3, 2)],
        [(0.0, 2), (math.pi / 2, 1)],
        [(math.pi / 4, 2), (math.pi / 2, 1)],
        [(0.0, 2), (math.pi / 5, 2)],
    ]
    for moduli in moduli_pool:
        V = random_subspace(4, moduli, rng)
        formula = normalizer_dimension_formula(V)
        assert len(kahler.normalizer_algebra(V)) == formula
        assert normalizer_dim_oracle(V) == formula


def _agrees_with_the_loop_oracle(V):
    alg = kahler.normalizer_algebra(V)
    m = V.ambient_complex_dim  # g_a = C^{n-1}, so n = m + 1
    frames = [polar._q_frame(np.asarray(q, dtype=complex), m, m + 1)[1]
              for q in (alg, normalizer_algebra_loop(V))]
    return (len(alg) == normalizer_dimension_formula(V)
            and same_matrix_span(*frames, m + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalizer_matches_the_loop_oracle_on_the_catalog(n):
    for moduli in polar._admissible_moduli(n - 1, (0.4, 1.0)):
        V = kahler.canonical_subspace(n - 1, moduli)
        assert _agrees_with_the_loop_oracle(V), moduli


def test_normalizer_matches_the_loop_oracle_on_haar_moved_subspaces():
    rng = np.random.default_rng(23)
    for moduli in ([(0.0, 2), (0.4, 2)], [(1.0, 4), (math.pi / 2, 1)],
                   [(0.4, 2), (1.0, 2), (math.pi / 2, 1)], [(0.0, 4), (math.pi / 2, 2)]):
        assert _agrees_with_the_loop_oracle(random_subspace(5, moduli, rng)), moduli


# --- serialization ---------------------------------------------------------------


def test_real_subspace_json_roundtrip():
    rng = np.random.default_rng(1)
    V = random_subspace(3, [(math.pi / 3, 2), (math.pi / 2, 1)], rng)
    W = RealSubspace.from_json(V.to_json())
    assert same_span(V, W)


# --- property-based -----------------------------------------------------------


@st.composite
def constant_angle_case(draw):
    pairs = draw(st.integers(min_value=1, max_value=2))
    extra = draw(st.integers(min_value=0, max_value=2))
    phi = draw(st.floats(min_value=0.05, max_value=math.pi / 2 - 0.05))
    return pairs, phi, 2 * pairs + extra


@settings(max_examples=25, deadline=None)
@given(constant_angle_case())
def test_constant_angle_roundtrip_property(case):
    pairs, phi, ambient = case
    V = kahler.make_constant_angle(pairs, phi, ambient)
    dec = kahler.decompose(V)
    assert len(dec.factors) == 1
    got, sub = dec.factors[0]
    assert abs(got - phi) <= kahler.TOL_ANGLE
    assert sub.dim == 2 * pairs


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_factor_vectors_have_the_factor_angle(seed):
    rng = np.random.default_rng(seed)
    V = random_subspace(4, [(math.pi / 5, 2), (math.pi / 2, 2)], rng)
    for phi, sub in kahler.decompose(V).factors:
        v = sample_unit(sub, rng)
        assert abs(kahler_angle(sub, v) - phi) <= kahler.TOL_ANGLE
