import numpy as np
import pytest

from chpolar import su1n
from chpolar.polar import check_polarity
from chpolar.su1n import (
    bracket,
    build_root_decomposition,
    galpha_matrices,
    inner,
    inner_an,
    norm,
    p_matrices,
    theta,
)
from oracles import ad, ad_exp


def coords(rd, X):
    return rd.coords_many(X[None])[0]


def galpha(u):
    """X(u)/2 in g_a for u in C^{n-1}."""
    return galpha_matrices(np.asarray(u, dtype=complex)[None])[0]


def rand_element(rd, rng):
    return rd.from_coords_many(rng.standard_normal(rd.dim))[0]


def rand_u(rd, rng):
    return rng.standard_normal(rd.n - 1) + 1j * rng.standard_normal(rd.n - 1)


def rand_galpha(rd, rng):
    return galpha(rand_u(rd, rng))


def J(rd, X):
    """The complex structure on g_a: J X = -[theta X, Z]."""
    return -bracket(theta(X), rd.Z)


def onb(rd):
    """The global orthonormal basis, block by block."""
    return [X for name in rd.slices for X in rd.block(name)]


def times_i(rd, X):
    """The complex structure of T_o CH^n = C^n on a p-matrix X: z -> i z."""
    assert np.abs(X - p_matrices(X[1:, 0][None])[0]).max() < 1e-12  # X in p
    return p_matrices(1j * X[1:, 0][None])[0]


def rand_k0(rd, rng):
    v = np.zeros(rd.dim)
    sl = rd.slices["k_0"]
    v[sl] = rng.standard_normal(sl.stop - sl.start)
    return rd.from_coords_many(v)[0]


# --- membership ------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_membership_residual_is_relative(scale):
    rd = build_root_decomposition(2)
    bad = scale * np.array([np.eye(3), np.diag([1.0, -0.5, -0.5])], dtype=complex)
    assert np.allclose(su1n.membership_residual(bad), [1.0, 0.2])
    good = scale * rd.from_coords_many(np.random.default_rng(0).standard_normal((4, rd.dim)))
    assert su1n.membership_residual(good).max() < 1e-15
    with pytest.raises(ValueError, match=r"relative residual 1 > 1e-12"):
        check_polarity(2, bad[:1], bad[:1])


# --- bracket --------------------------------------------------------------------


def test_bracket_antisymmetric_and_self_zero():
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(1)
    X, Y = rand_element(rd, rng), rand_element(rd, rng)
    assert norm(bracket(X, X)) == pytest.approx(0.0, abs=1e-13)
    assert norm(bracket(X, Y) + bracket(Y, X)) == pytest.approx(0.0, abs=1e-12)


def test_bracket_dimension_mismatch():
    rd2, rd3 = build_root_decomposition(2), build_root_decomposition(3)
    with pytest.raises(ValueError):
        bracket(rd2.B, rd3.B)


def test_bracket_of_B_with_galpha():
    rd = build_root_decomposition(3)
    U = rand_galpha(rd, np.random.default_rng(2))
    assert norm(bracket(rd.B, U) - 0.5 * U) < 1e-12


def test_bracket_U_JU_hits_center():
    rd = build_root_decomposition(3)
    U = rand_galpha(rd, np.random.default_rng(3))
    JU = J(rd, U)
    want = 0.5 * inner(JU, JU) * rd.Z
    assert norm(bracket(U, JU) - want) < 1e-10


def test_jacobi_identity():
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        X, Y, Z = (rand_element(rd, rng) for _ in range(3))
        jac = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        assert norm(jac) < 1e-9


# --- theta ----------------------------------------------------------------------


def test_theta_fixes_k_and_negates_p():
    rd = build_root_decomposition(3)
    T = rand_k0(rd, np.random.default_rng(5))
    assert norm(theta(T) - T) < 1e-12
    assert norm(theta(rd.B) + rd.B) < 1e-12


def test_theta_swaps_root_spaces():
    rd = build_root_decomposition(3)
    for E in rd.block("g_a"):
        tE = theta(E)
        assert norm(tE - rd.project_block(tE, ["g_ma"])) < 1e-12
    tZ = theta(rd.Z)
    assert norm(tZ - rd.project_block(tZ, ["g_m2a"])) < 1e-12


# --- metrics --------------------------------------------------------------------


def test_metric_normalization():
    for n in (2, 3, 5, 16):
        rd = build_root_decomposition(n)
        # the module's scale c is the one that <B, B> = c tr(B^2) = 1 solves for
        assert abs(1.0 / np.real(np.trace(rd.B @ rd.B)) - su1n._METRIC_SCALE) <= 1e-14
        assert inner(rd.B, rd.B) == pytest.approx(1.0, abs=1e-12)
        assert inner(rd.Z, rd.Z) == pytest.approx(2.0, abs=1e-12)
        assert inner_an(rd.Z, rd.Z) == pytest.approx(1.0, abs=1e-12)
        assert inner_an(rd.B, rd.B) == pytest.approx(1.0, abs=1e-12)


def test_inner_positive_definite_on_random_elements():
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(6)
    for _ in range(20):
        X = rand_element(rd, rng)
        assert inner(X, X) > 0


def test_skew_adjointness_relation():
    # <ad(X)Y, W> = -<Y, ad(theta X) W>
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, Y, W = (rand_element(rd, rng) for _ in range(3))
        lhs = inner(bracket(X, Y), W)
        rhs = -inner(Y, bracket(theta(X), W))
        assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_inner_an_rejects_elements_outside_a_plus_n():
    rd = build_root_decomposition(2)
    T = rand_k0(rd, np.random.default_rng(8))
    with pytest.raises(ValueError, match=r"a \+ n \(part outside / \|X\| = 1 > 1e-09\)"):
        inner_an(T, T)


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
def test_inner_an_rejects_k0_at_every_scale(scale):
    # the part outside a + n is measured relative to |X|, so a small
    # element of k_0 is as far outside as a large one
    rd = build_root_decomposition(2)
    T = scale * rd.block("k_0")[0]
    with pytest.raises(ValueError, match=r"part outside / \|X\| = 1 > 1e-09"):
        inner_an(T, T)
    assert inner_an(scale * rd.Z, scale * rd.Z) == pytest.approx(scale ** 2, rel=1e-12)


def test_norm_does_not_underflow():
    # the square of 1e-200 underflows; norm scales by a power of two first,
    # which is exact, so it is the plain sqrt<X, X> wherever that is representable
    rd = build_root_decomposition(2)
    assert norm(1e-200 * rd.B) == pytest.approx(1e-200, rel=1e-15)
    rng = np.random.default_rng(11)
    for scale in (1e-150, 1.0, 1e150):
        X = scale * rand_element(build_root_decomposition(3), rng)
        assert norm(X) == np.sqrt(inner(X, X))
    T = 1e-200 * rd.block("k_0")[0]
    with pytest.raises(ValueError, match=r"part outside / \|X\| = 1 > 1e-09"):
        inner_an(T, T)


# --- root decomposition ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_root_space_dimensions(n):
    rd = build_root_decomposition(n)
    dims = {k: v.stop - v.start for k, v in rd.slices.items()}
    assert dims["g_a"] == dims["g_ma"] == 2 * n - 2
    assert dims["g_2a"] == dims["g_m2a"] == 1
    assert dims["a"] == 1
    assert dims["k_0"] == (n - 1) ** 2
    assert rd.dim == (n + 1) ** 2 - 1


def test_root_spaces_are_ad_B_eigenspaces():
    lam = {"g_m2a": -1.0, "g_ma": -0.5, "k_0": 0.0, "a": 0.0, "g_a": 0.5, "g_2a": 1.0}
    for n in (3, 16):
        rd = build_root_decomposition(n)
        for name, want in lam.items():
            for E in rd.block(name):
                assert norm(bracket(rd.B, E) - want * E) < 1e-10


def test_bracket_grading():
    # [g_lam, g_mu] sits in g_{lam+mu} (zero block when lam+mu is not a root)
    rd = build_root_decomposition(3)
    weights = {"g_m2a": -2, "g_ma": -1, "k_0": 0, "a": 0, "g_a": 1, "g_2a": 2}
    blocks = {w: [] for w in (-2, -1, 0, 1, 2)}
    for name, w in weights.items():
        blocks[w].extend(rd.block(name))
    for w1, els1 in blocks.items():
        for w2, els2 in blocks.items():
            target = w1 + w2
            for X in els1[:2]:
                for Y in els2[:2]:
                    br = bracket(X, Y)
                    if -2 <= target <= 2:
                        names = [k for k, v in weights.items() if v == target]
                        resid = norm(br - rd.project_block(br, names))
                    else:
                        resid = norm(br)
                    assert resid < 1e-10


def test_k_and_p_bases():
    # k_0 with the symmetrized root vectors spans k, B with the
    # antisymmetrized ones spans p; (E - theta E)/sqrt 2 is a p-matrix
    rd = build_root_decomposition(3)
    n = rd.n
    roots = np.concatenate([rd.block("g_a"), rd.block("g_2a")])
    kb = list(rd.block("k_0")) + [(1 / np.sqrt(2)) * (E + theta(E)) for E in roots]
    pb = [rd.B] + list(p_matrices(np.sqrt(2) * roots[:, 1:, 0]))
    for E, P in zip(roots, pb[1:]):
        assert norm((1 / np.sqrt(2)) * (E - theta(E)) - P) < 1e-12
    assert len(kb) == n * n and len(pb) == 2 * n
    for X in kb:
        assert norm(theta(X) - X) < 1e-12
    for X in pb:
        assert norm(theta(X) + X) < 1e-12
    gram = np.array([[inner(X, Y) for Y in kb + pb] for X in kb + pb])
    assert np.abs(gram - np.eye(rd.dim)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_basis_lies_in_su1n_and_is_orthonormal(n):
    rd = build_root_decomposition(n)
    basis = np.array(onb(rd))
    assert su1n.membership_residual(basis).max() <= su1n.TOL_ALG
    # <X_i, X_j> = -c Re tr(theta(X_i) X_j) over all pairs at once
    gram = -su1n._METRIC_SCALE * np.einsum("ikl,jlk->ij", theta(basis), basis).real
    assert np.abs(gram - np.eye(rd.dim)).max() <= 1e-9


def test_onb_is_orthonormal_and_projections_sum_to_identity():
    rd = build_root_decomposition(3)
    basis = onb(rd)
    gram = np.array([[inner(X, Y) for Y in basis] for X in basis])
    assert np.abs(gram - np.eye(rd.dim)).max() < 1e-9
    rng = np.random.default_rng(9)
    X = rand_element(rd, rng)
    total = rd.project_block(X, list(rd.slices.keys()))
    assert norm(X - total) < 1e-10


def test_root_spaces_mutually_orthogonal():
    rd = build_root_decomposition(3)
    names = list(rd.slices.keys())
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for X in rd.block(a)[:3]:
                for Y in rd.block(b)[:3]:
                    assert abs(inner(X, Y)) < 1e-10


def test_J_squares_to_minus_one():
    rd = build_root_decomposition(4)
    rng = np.random.default_rng(10)
    U = rand_galpha(rd, rng)
    assert norm(J(rd, J(rd, U)) + U) < 1e-10
    ga = rd.slices["g_a"]
    Jmat = rd.coords_many(J(rd, rd.block("g_a")))[:, ga].T
    assert np.abs(Jmat @ Jmat + np.eye(2 * rd.n - 2)).max() < 1e-10


def test_J_fixed_by_JB_equals_Z():
    # 2 i B = (1 - theta) Z under the tangent-space complex structure
    for n in (3, 16):
        rd = build_root_decomposition(n)
        lhs = 2.0 * times_i(rd, rd.B)
        rhs = rd.Z - theta(rd.Z)
        assert norm(lhs - rhs) < 1e-12


def test_bracket_with_center_recovers_J():
    # -[theta X(u), Z] = X(iu) on g_a: J is multiplication by i
    for n in (2, 3, 5, 16):
        rd = build_root_decomposition(n)
        rng = np.random.default_rng(n)
        for _ in range(20):
            u = rand_u(rd, rng)
            assert norm(bracket(theta(galpha(u)), rd.Z) + galpha(1j * u)) < 1e-10


def test_k0_pairing_identity():
    # <T, (1+theta)[theta X, Y]> = 2 <[T, X], Y>
    for n in (2, 3, 5):
        rd = build_root_decomposition(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            T = rand_k0(rd, rng)
            X, Y = rand_galpha(rd, rng), rand_galpha(rd, rng)
            M = bracket(theta(X), Y)
            lhs = inner(T, M + theta(M))
            rhs = 2.0 * inner(bracket(T, X), Y)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_equivariance_isometry_and_complex_linearity():
    # (1 - theta)/2 : a + n -> p intertwines k_0, is an isometry from the AN
    # metric, and is complex linear from g_a to p_a.
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        T = rand_k0(rd, rng)
        U = rand_galpha(rd, rng)
        X = rng.standard_normal() * rd.B + U + rng.standard_normal() * rd.Z
        half = 0.5 * (X - theta(X))
        # equivariance
        lhs = 0.5 * (bracket(T, X) - theta(bracket(T, X)))
        rhs = bracket(T, half)
        assert norm(lhs - rhs) < 1e-10
        # isometry onto (p, <,>) from (a+n, <,>_AN)
        Y = rng.standard_normal() * rd.B + rand_galpha(rd, rng) + rng.standard_normal() * rd.Z
        halfY = 0.5 * (Y - theta(Y))
        assert inner(half, halfY) == pytest.approx(inner_an(X, Y), abs=1e-10)
        # complex linearity on g_a
        JU = J(rd, U)
        lhs2 = 0.5 * (JU - theta(JU))
        rhs2 = times_i(rd, 0.5 * (U - theta(U)))
        assert norm(lhs2 - rhs2) < 1e-10


# --- adjoint maps ------------------------------------------------------------------


def test_ad_matrix_matches_bracket():
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(12)
    X, Y = rand_element(rd, rng), rand_element(rd, rng)
    lhs = ad(X) @ coords(rd, Y)
    rhs = coords(rd, bracket(X, Y))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_ad_exp_identity_and_inverse():
    rd = build_root_decomposition(3)
    zero = rd.from_coords_many(np.zeros(rd.dim))[0]
    assert np.abs(ad_exp(zero) - np.eye(rd.dim)).max() < 1e-12
    rng = np.random.default_rng(13)
    X = 0.5 * rand_element(rd, rng)
    M = ad_exp(X) @ ad_exp(-1.0 * X)
    assert np.abs(M - np.eye(rd.dim)).max() < 1e-9


def test_ad_exp_nilpotent_on_k0_components():
    # e^{t ad(xi)} T for xi in g_a and T in k_0 is quadratic in t: the cubic
    # correction must vanish.
    rd = build_root_decomposition(3)
    rng = np.random.default_rng(14)
    xi = rand_galpha(rd, rng)
    T = rand_k0(rd, rng)
    t = 0.7
    series = (
        T + t * bracket(xi, T) + 0.5 * t * t * bracket(xi, bracket(xi, T))
    )
    full = rd.from_coords_many(ad_exp(t * xi) @ coords(rd, T))[0]
    assert norm(full - series) < 1e-10
    cubic = bracket(xi, bracket(xi, bracket(xi, T)))
    assert norm(cubic) < 1e-10


def _k0_cholesky_oracle(n):
    """k_0 built numerically: the u(n-1) generators (real and imaginary
    off-diagonal ones, then i E_jj) embedded by traceless_block, then
    orthonormalized through the Cholesky factor of their Gram matrix."""
    m = n - 1
    gens = []
    for j in range(m):
        for k in range(j + 1, m):
            for val in (1.0, 1j):
                N = np.zeros((m, m), complex)
                N[j, k], N[k, j] = val, -np.conj(val)
                gens.append(N)
    for j in range(m):
        N = np.zeros((m, m), complex)
        N[j, j] = 1j
        gens.append(N)
    raw = su1n.traceless_block(n, np.array(gens))
    L = np.linalg.cholesky(np.array([[inner(a, b) for b in raw] for a in raw]))
    return np.linalg.solve(L, raw.reshape(len(raw), -1)).reshape(raw.shape)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_closed_form_k0_block_matches_the_cholesky_oracle(n):
    closed, oracle = build_root_decomposition(n).block("k_0"), _k0_cholesky_oracle(n)
    eye = np.eye((n - 1) ** 2)
    for basis in (closed, oracle):
        assert np.abs(np.array([[inner(a, b) for b in basis] for a in basis]) - eye).max() <= 1e-12
    # two orthonormal bases span the same space iff their pairing is orthogonal
    P = np.array([[inner(a, b) for b in closed] for a in oracle])
    assert np.abs(P @ P.T - eye).max() <= 1e-12
    assert np.abs(oracle - np.einsum("ij,jkl->ikl", P, closed)).max() <= 1e-12


def test_k0_bridge_roundtrip_and_action():
    rng = np.random.default_rng(15)
    N = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    N = N - N.conj().T
    T = su1n.traceless_block(4, N)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert norm(bracket(T, galpha(u)) - galpha(N @ u)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_galpha_matrix_matches_the_frame_sum(n):
    # the reference: u -> sum_j Re u_j F_j + Im u_j J F_j over the
    # AN-orthonormal frame F_j = X(e_j)/2, J F_j = X(i e_j)/2, which is
    # sqrt(2) times the g_a block
    rd = build_root_decomposition(n)
    frame = np.zeros((2 * n - 2, n + 1, n + 1), complex)
    for j in range(n - 1):
        for row, z in ((2 * j, 1.0), (2 * j + 1, 1j)):
            frame[row, 0, 2 + j] = frame[row, 1, 2 + j] = np.conj(z) / 2
            frame[row, 2 + j, 0] = z / 2
            frame[row, 2 + j, 1] = -z / 2
    assert np.array_equal(np.sqrt(2) * rd._mats[rd.slices["g_a"]], frame)
    rng = np.random.default_rng(n)
    for _ in range(200):
        u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        mat = np.zeros((n + 1, n + 1), dtype=complex)
        for j, z in enumerate(u):
            mat = mat + z.real * frame[2 * j] + z.imag * frame[2 * j + 1]
        assert np.array_equal(galpha(u), mat)


# --- the closed form against the eigenspace construction ---------------------------
#
# The oracle is the numerical construction the closed form replaced: a
# Gram-Schmidt basis of su(1, n), the ad(B) matrix in it, its eigh
# eigenspaces snapped to the root values, and k_0 as the theta-fixed part
# of the zero eigenspace.


def _raw_su_basis(n):
    eps = np.array([-1.0] + [1.0] * n)
    out = []
    N1 = n + 1
    for j in range(N1):
        for k in range(j + 1, N1):
            E = np.zeros((N1, N1), complex)
            E[j, k], E[k, j] = 1.0, -eps[j] * eps[k]
            out.append(E)
            E = np.zeros((N1, N1), complex)
            E[j, k], E[k, j] = 1j, 1j * eps[j] * eps[k]
            out.append(E)
    for j in range(n):
        E = np.zeros((N1, N1), complex)
        E[j, j], E[j + 1, j + 1] = 1j, -1j
        out.append(E)
    return out


def _gram_raw(X, Y, I, c):
    """The Gram matrix -c Re tr(I X_a I Y_b) of two stacks of matrices, as
    one matmul: tr(M N) sums M * N^T entrywise."""
    left = (I @ X @ I).reshape(len(X), -1)
    return -c * np.real(left @ Y.transpose(0, 2, 1).reshape(len(Y), -1).T)


def _gram_schmidt_matrices(mats, I, c):
    """Gram-Schmidt in coefficients over ``mats``: each element less its
    parts along the earlier results, twice, and dropped when the remainder
    is at most 1e-10."""
    mats = np.asarray(mats)
    G = _gram_raw(mats, mats, I, c)
    out = np.zeros((0, len(mats)))
    for y in np.eye(len(mats)):
        for _ in range(2):
            y = y - ((y @ G) @ out.T) @ out
        nrm = np.sqrt(max(0.0, y @ G @ y))
        if nrm > 1e-10:
            out = np.vstack([out, y / nrm])
    return np.tensordot(out, mats, axes=(1, 0))


def eigenspace_oracle(n, c=2.0):
    """Root spaces as ad(B) eigenspaces: value -> orthonormal matrices,
    with the zero eigenspace also split into k_0 (key 'k_0')."""
    I = np.diag([-1.0] + [1.0] * n).astype(complex)
    B = np.zeros((n + 1, n + 1), complex)
    B[0, 1] = B[1, 0] = 0.5
    onb = _gram_schmidt_matrices(_raw_su_basis(n), I, c)
    assert len(onb) == (n + 1) ** 2 - 1
    adB = _gram_raw(onb, B @ onb - onb @ B, I, c)
    evals, evecs = np.linalg.eigh(adB)
    out = {t: [] for t in (-1.0, -0.5, 0.0, 0.5, 1.0)}
    for lam, col in zip(evals, evecs.T):
        best = min(out, key=lambda t: abs(lam - t))
        assert abs(lam - best) < 1e-8
        out[best].append(np.tensordot(col, onb, axes=(0, 0)))
    out["k_0"] = _gram_schmidt_matrices([(M + I @ M @ I) / 2 for M in out[0.0]], I, c)
    return out


def _projector(rd, mats):
    C = rd.coords_many(np.array(mats))
    # every oracle element is a unit vector fully seen by the coordinates
    assert np.abs(np.linalg.norm(C, axis=1) - 1.0).max() < 1e-10
    return C.T @ C


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_closed_form_blocks_span_the_ad_B_eigenspaces(n):
    rd = build_root_decomposition(n)
    oracle = eigenspace_oracle(n)
    pairs = {
        -1.0: ["g_m2a"], -0.5: ["g_ma"], 0.0: ["k_0", "a"], "k_0": ["k_0"],
        0.5: ["g_a"], 1.0: ["g_2a"],
    }
    for key, names in pairs.items():
        closed = np.zeros((rd.dim, rd.dim))
        for name in names:
            sl = rd.slices[name]
            closed[sl, sl] = np.eye(sl.stop - sl.start)
        assert np.abs(_projector(rd, oracle[key]) - closed).max() < 1e-9, key


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_theta_matrix_is_coords_of_theta_of_basis(n):
    rd = build_root_decomposition(n)
    for j, E in enumerate(onb(rd)):
        assert np.abs(rd.theta_matrix[:, j] - coords(rd, theta(E))).max() < 1e-12
    # a signed permutation
    assert np.array_equal(np.abs(rd.theta_matrix).sum(axis=0), np.ones(rd.dim))
    assert set(np.unique(rd.theta_matrix)) <= {-1.0, 0.0, 1.0}


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_stacked_coords_and_brackets_match_single_ones(n):
    rd = build_root_decomposition(n)
    rng = np.random.default_rng(200 + n)
    els = [rand_element(rd, rng) for _ in range(6)]
    stack = np.array(els)
    many = rd.coords_many(stack)
    assert np.abs(many - np.array([coords(rd, X) for X in els])).max() < 1e-12
    assert np.abs(rd.from_coords_many(many) - stack).max() < 1e-12
    X = els[0]
    brs = bracket(X, stack)
    for Y, br in zip(els, brs):
        assert np.abs(br - bracket(X, Y)).max() < 1e-12
    rows = np.linalg.qr(rng.standard_normal((rd.dim, 3)))[0].T
    along = su1n.real_rows(stack) @ rd.dual_rows(rows).T
    assert np.abs(along - many @ rows.T).max() < 1e-12
