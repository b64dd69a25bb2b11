import ast
import dataclasses
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from chpolar import kahler, polar
from chpolar._linalg import left_nullspace, orthonormal_rows, real_rows, unit_rows
from chpolar.cli import main, render_json
from chpolar.kahler import RealSubspace
from chpolar.polar import (
    PolarActionSpec,
    build_family_I,
    build_family_II,
    check_polarity,
    check_spec,
    enumerate_moduli,
    normalizer_section,
    orbit_equivalence_invariants,
)
from chpolar.su1n import bracket, build_root_decomposition, theta
from oracles import build_action, regular_vectors, same_span, sample_ranks, with_q_basis


def canonical_family_II(n, b_flag, moduli):
    w = kahler.canonical_subspace(n - 1, moduli)
    return PolarActionSpec(
        n=n, family="II", b_flag=b_flag, w=w,
        q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
    )


def family_I_spec(n, k, q_kind):
    m = n - k
    eye = np.eye(m, dtype=complex) if m else np.zeros((0, 0))
    if q_kind == "none":
        return PolarActionSpec(n=n, family="I", k=k)
    if q_kind == "full":
        return PolarActionSpec(
            n=n, family="I", k=k,
            q_basis=kahler.skew_hermitian_basis(m),
            q_section=RealSubspace(m, [eye[0]]),
        )
    torus = []
    for j in range(m):
        E = np.zeros((m, m), dtype=complex)
        E[j, j] = 1j
        torus.append(E)
    return PolarActionSpec(
        n=n, family="I", k=k, q_basis=torus, q_section=RealSubspace(m, list(eye)),
    )


# --- builders ---------------------------------------------------------------------


def family_II(n, b_flag, w=None, q_basis=(), q_section=None):
    return PolarActionSpec(n=n, family="II", b_flag=b_flag, w=w, q_basis=list(q_basis),
                           q_section=q_section)


def family_I(n, k, q_basis=(), q_section=None):
    return PolarActionSpec(n=n, family="I", k=k, q_basis=list(q_basis), q_section=q_section)


def test_build_family_II_shapes():
    # b = a, w = 0, q = k_0, s = one line: h has dim (n-1)^2 + 2, section is a line
    n = 3
    q = kahler.skew_hermitian_basis(n - 1)
    s = normalizer_section(RealSubspace.zero(n - 1))
    h, sigma = build_family_II(family_II(n, "full", q_basis=q, q_section=s))
    assert h.shape == ((n - 1) ** 2 + 2, n + 1, n + 1)
    assert sigma.shape == (1, n + 1, n + 1)


def test_build_family_II_horosphere():
    n = 3
    rd = build_root_decomposition(n)
    h, sigma = build_family_II(family_II(n, "zero", w=RealSubspace.full(n - 1)))
    # h = n (the Heisenberg algebra), section tangent = a
    assert len(h) == 2 * (n - 1) + 1
    assert len(sigma) == 1 and np.abs(sigma[0] - rd.B).max() < 1e-12


def test_build_family_II_rejects_non_normalizing_q():
    n = 3
    w = RealSubspace(n - 1, [np.array([1.0 + 0j, 0.0])])
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 1], bad[1, 0] = 1.0, -1.0  # rotates e1 out of w... e1 -> -e2
    with pytest.raises(ValueError, match="normalize"):
        build_family_II(family_II(n, "full", w=w, q_basis=[bad]))


def test_non_totally_real_section_claim_fails_at_check_time():
    # a complex line claimed as section: builder passes it through, the
    # criterion rejects it via the bracket condition
    n = 3
    s = RealSubspace(n - 1, [np.array([1.0 + 0j, 0]), np.array([1j, 0])])
    h, sigma = build_family_II(family_II(n, "full", q_section=s))
    report = check_polarity(n, h, sigma)
    assert not report.verdict and not report.bracket_condition


def test_section_meeting_w_fails_at_check_time():
    n = 3
    w = RealSubspace(n - 1, [np.array([1.0 + 0j, 0])])
    s = RealSubspace(n - 1, [np.array([1.0 + 0j, 0])])
    h, sigma = build_family_II(family_II(n, "full", w=w, q_section=s))
    report = check_polarity(n, h, sigma)
    assert not report.verdict and not report.section_in_normal


def test_build_family_I_shapes():
    n = 3
    h, sigma = build_family_I(family_I(n, n))
    assert len(h) == n * (n + 1) // 2  # dim so(1, n)
    assert len(sigma) == 1
    h0, sigma0 = build_family_I(family_I(n, 0, kahler.skew_hermitian_basis(n),
                                         RealSubspace(n, [np.eye(n, dtype=complex)[0]])))
    assert len(h0) == n * n
    assert len(sigma0) == 1


def test_build_family_I_rejects_non_subalgebra():
    n = 3
    E = np.zeros((2, 2), dtype=complex)
    E[0, 1], E[1, 0] = 1.0, -1.0
    F = np.zeros((2, 2), dtype=complex)
    F[0, 1], F[1, 0] = 1j, 1j
    with pytest.raises(ValueError, match="closed"):
        build_family_I(family_I(n, 1, [E, F]))  # [E, F] leaves span{E, F}


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
def test_non_subalgebra_rejected_at_every_scale(scale):
    # the closure residual is measured on an orthonormalized basis, so a
    # tiny or huge non-closed q_basis is still an input error
    E = np.zeros((2, 2), dtype=complex)
    E[0, 1], E[1, 0] = 1.0, -1.0
    F = np.zeros((2, 2), dtype=complex)
    F[0, 1], F[1, 0] = 1j, 1j
    q = [scale * E, scale * F]
    with pytest.raises(ValueError, match="closed"):
        build_family_I(family_I(3, 1, q))
    with pytest.raises(ValueError, match="closed"):
        build_family_II(family_II(3, "full", q_basis=q))


def closure_residual(n, h):
    """The closure residual of check_polarity's step 1 on the builders' h."""
    rd = build_root_decomposition(n)
    return polar._closure_residual(rd, orthonormal_rows(unit_rows(rd.coords_many(h))))


def conjugated(spec, A):
    """A family II spec moved by the unitary A: w -> A w, q -> A q A*,
    section -> A s."""
    m, spec = spec.n - 1, with_q_basis(spec)
    return PolarActionSpec(
        n=spec.n, family="II", b_flag=spec.b_flag,
        w=RealSubspace(m, [A @ b for b in spec.w.basis]),
        q_basis=[A @ N @ A.conj().T for N in spec.q_basis],
        q_section=RealSubspace(m, [A @ b for b in spec.q_section.basis]),
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("grid", [(), (math.pi / 6, math.pi / 4)])
def test_builders_return_closed_h(n, grid):
    # the builders check only their inputs (q closed, [q, w] in w); the h
    # they assemble from inputs that pass must then be closed
    rng = np.random.default_rng(n)
    specs = [entry.spec for entry in enumerate_moduli(n, grid)]
    specs += [conjugated(spec, kahler.haar_unitary(n - 1, rng))
              for spec in specs if spec.family == "II"]
    for spec in specs:
        n, h, _ = build_action(spec)
        assert closure_residual(n, h) <= 1e-9, spec.to_json()


# --- polarity criterion ------------------------------------------------------------


POLAR_CATALOG = [
    ("II b=a w=0 n=2", lambda: canonical_family_II(2, "full", [])),
    ("II b=0 w=0 n=2", lambda: canonical_family_II(2, "zero", [])),
    ("II b=a w=R n=2", lambda: canonical_family_II(2, "full", [(math.pi / 2, 1)])),
    ("II b=0 w=C n=2 horosphere", lambda: canonical_family_II(2, "zero", [(0.0, 2)])),
    ("I k=2 n=2", lambda: family_I_spec(2, 2, "none")),
    ("I k=0 u(2) n=2", lambda: family_I_spec(2, 0, "full")),
    ("II b=a w=pi/3 n=3", lambda: canonical_family_II(3, "full", [(math.pi / 3, 2)])),
    ("II b=0 w=pi/3 n=3", lambda: canonical_family_II(3, "zero", [(math.pi / 3, 2)])),
    ("II b=a w=R^2 n=3", lambda: canonical_family_II(3, "full", [(math.pi / 2, 2)])),
    ("I k=1 u(2) n=3", lambda: family_I_spec(3, 1, "full")),
    ("I k=1 torus n=3", lambda: family_I_spec(3, 1, "torus")),
    ("II b=a w={0,pi/2} n=4", lambda: canonical_family_II(4, "full", [(0.0, 2), (math.pi / 2, 1)])),
    ("II b=0 w={pi/3,pi/2} n=4", lambda: canonical_family_II(4, "zero", [(math.pi / 3, 2), (math.pi / 2, 1)])),
    ("I k=3 u(1) n=4", lambda: family_I_spec(4, 3, "full")),
    ("II b=a w={0,pi/3,pi/2} n=5", lambda: canonical_family_II(5, "full", [(0.0, 2), (math.pi / 3, 2), (math.pi / 2, 1)])),
]


@pytest.mark.parametrize("label,factory", POLAR_CATALOG, ids=[c[0] for c in POLAR_CATALOG])
def test_constructed_examples_are_polar(label, factory):
    spec = factory()
    n, h, sigma = build_action(spec)
    report = check_polarity(n, h, sigma, seed=5)
    assert report.verdict, report.to_json()
    assert report.bracket_residual < 1e-9


def test_crafted_negative_fails_robustly():
    n = 3
    rd = build_root_decomposition(n)
    h = np.array([rd.B, rd.Z])
    sigma = rd.block("g_a") - theta(rd.block("g_a"))
    report = check_polarity(n, h, sigma, seed=1)
    assert not report.verdict
    assert not report.bracket_condition
    assert report.bracket_residual >= 0.1
    with pytest.raises(ValueError, match="non-negative integer"):
        check_polarity(n, h, sigma, seed=-1)


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_check_polarity_rejects_stacks_outside_su1n(scale):
    n = 2
    h, sigma = build_family_II(canonical_family_II(n, "zero", []))
    shape = r" must be a \(k, 3, 3\) stack, got shape "
    with pytest.raises(ValueError, match="^h" + shape + r"\(3, 3\)"):
        check_polarity(n, scale * h[0], sigma)
    with pytest.raises(ValueError, match="^sigma" + shape + r"\(1, 4, 4\)"):
        check_polarity(n, h, scale * np.eye(4, dtype=complex)[None])
    for bad, resid in ((np.eye(3), "1"), (np.diag([1.0, -0.5, -0.5]), "0.2")):
        named = rf" leaves su\(1, 2\) \(relative residual {resid} > 1e-12\)"
        with pytest.raises(ValueError, match="^h" + named):
            check_polarity(n, np.concatenate([h, scale * bad[None]]), sigma)
        with pytest.raises(ValueError, match="^sigma" + named):
            check_polarity(n, h, scale * bad[None])
    got = check_polarity(n, scale * h, scale * sigma).to_json()
    want = check_polarity(n, h, sigma).to_json()
    assert {k: got[k] for k in EXACT_FIELDS} == {k: want[k] for k in EXACT_FIELDS}
    for key in RESIDUALS:  # unit_rows rounds 1e-12 h and 1e-12 sigma differently from 1
        assert abs(got[key] - want[key]) <= 1e-15, (key, got, want)


def test_transitive_action_reported_vacuously_polar():
    n = 2
    spec = canonical_family_II(n, "full", [(0.0, 2)])  # full parabolic: w = g_a
    n, h, sigma = build_action(spec)
    report = check_polarity(n, h, sigma)
    assert report.transitive and report.cohomogeneity == 0
    assert report.verdict


def test_transitive_action_with_a_section_reads_it_outside_the_normal_space():
    # b = a and w = g_a at n = 2: the orbit is all of CH^2, so no line of
    # the section is normal to it, and both evaluators say so
    spec = canonical_family_II(2, "full", [(0.0, 2)])
    spec.q_section = RealSubspace(1, [np.ones(1, dtype=complex)])
    for report in (check_spec(spec), check_polarity(*build_action(spec))):
        assert report.transitive and not report.verdict
        assert not report.section_in_normal and not report.slice_condition
        assert report.section_residual == pytest.approx(1.0)


def test_cohomogeneities_in_catalog():
    spec = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    n, h, sigma = build_action(spec)
    assert check_polarity(n, h, sigma).cohomogeneity == 1
    spec2 = family_I_spec(3, 1, "torus")
    n, h, sigma = build_action(spec2)
    assert check_polarity(n, h, sigma).cohomogeneity == 3  # iB line + R^2


def test_cohomogeneity_of_a_false_verdict_is_measured_on_the_normal_space():
    # q = 0: h = g_2a has trivial isotropy, so every orbit has codimension 2n - 1
    n = 4
    spec = PolarActionSpec(n=n, family="II", b_flag="zero",
                           q_section=RealSubspace(n - 1, list(np.eye(n - 1, dtype=complex))))
    report = check_polarity(*build_action(spec))
    assert not report.verdict
    assert (report.dim_normal, report.cohomogeneity) == (2 * n - 1, 2 * n - 1)
    # q = u(2) claiming R^2: U(2) has 3-dimensional principal orbits on C^2
    spec = PolarActionSpec(n=3, family="II", b_flag="zero",
                           q_basis=kahler.skew_hermitian_basis(2),
                           q_section=RealSubspace(2, list(np.eye(2, dtype=complex))))
    report = check_polarity(*build_action(spec))
    assert not report.verdict
    assert (report.dim_normal, report.dim_section, report.cohomogeneity) == (5, 3, 5 - 3)


# --- regular vectors ------------------------------------------------------------------


def test_regular_vectors_names_the_overlap_of_s_and_w():
    e1 = np.array([1.0 + 0j, 0.0])
    w, s = RealSubspace(2, [e1]), RealSubspace(2, [e1 + np.array([0, 1.0])])
    with pytest.raises(ValueError, match=r"to w \(max \|Re<s_i, w_j>\| = 0.707 > 1e-8\)"):
        regular_vectors([], w, s)


@pytest.mark.parametrize("q_basis", [
    [np.diag([1.0, 0.0])],                  # Hermitian
    [np.diag([1j, 0, 0, 1j])],              # skew-Hermitian, but on C^4
], ids=["hermitian", "wrong-size"])
def test_regular_vectors_rejects_a_q_outside_u2(q_basis):
    w, s = RealSubspace.zero(2), RealSubspace(2, [np.array([1.0 + 0j, 0.0])])
    with pytest.raises(ValueError):
        regular_vectors(q_basis, w, s)


def test_regular_vectors_full_k0():
    n = 3
    q = kahler.skew_hermitian_basis(n - 1)
    w = RealSubspace.zero(n - 1)
    s = RealSubspace(n - 1, [np.eye(n - 1, dtype=complex)[0]])
    out = regular_vectors(q, w, s, samples=50, seed=2)
    assert len(out) == 50
    assert all(flag for _, flag in out)


def test_regular_vectors_trivial_q_rank_zero_case():
    # q = 0: regular iff the target dimension is zero, i.e. w + s fills g_a
    m = 2
    w = RealSubspace(m, [np.array([0, 1.0 + 0j]), np.array([0, 1j])])
    s_small = RealSubspace(m, [np.array([1.0 + 0j, 0])])
    out = regular_vectors([], w, s_small, samples=5, seed=3)
    assert all(not flag for _, flag in out)  # target dim 1, rank 0
    s_full = RealSubspace(m, [np.array([1.0 + 0j, 0]), np.array([1j, 0])])
    # s_full is not totally real, but regular_vectors only needs s orthogonal to w
    out2 = regular_vectors([], w, s_full, samples=5, seed=3)
    assert all(flag for _, flag in out2)  # target dim 0


def test_regular_vectors_density_after_polarity():
    spec = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    out = regular_vectors(spec.q_basis, spec.w, spec.q_section, samples=100, seed=4)
    assert sum(flag for _, flag in out) >= 99


# --- orbit equivalence ------------------------------------------------------------------


def test_equivalence_reflexive():
    spec = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    ans, report = orbit_equivalence_invariants(spec, spec)
    assert ans == "yes"


def test_equivalence_family_mismatch():
    a = family_I_spec(3, 1, "full")
    b = canonical_family_II(3, "full", [])
    ans, _ = orbit_equivalence_invariants(a, b)
    assert ans == "no"
    ans2, _ = orbit_equivalence_invariants(b, a)
    assert ans2 == "no"


def test_equivalence_b_flag_mismatch():
    a = canonical_family_II(3, "full", [(math.pi / 2, 1)])
    b = canonical_family_II(3, "zero", [(math.pi / 2, 1)])
    ans, report = orbit_equivalence_invariants(a, b)
    assert ans == "no" and "b-flag" in report["reason"]


def test_equivalence_angle_moduli_mismatch():
    a = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    b = canonical_family_II(3, "full", [(math.pi / 4, 2)])
    ans, report = orbit_equivalence_invariants(a, b)
    assert ans == "no" and "moduli" in report["reason"]


def test_equivalence_congruent_translates():
    # same moduli, w presented in different unitary positions: must be 'yes'
    rng = np.random.default_rng(12)
    moduli = [(math.pi / 3, 2)]
    w1 = kahler.canonical_subspace(2, moduli)
    A = kahler.haar_unitary(2, rng)
    w2 = RealSubspace(2, [A @ b for b in w1.basis])
    mk = lambda w: PolarActionSpec(
        n=3, family="II", b_flag="full", w=w,
        q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
    )
    ans, report = orbit_equivalence_invariants(mk(w1), mk(w2))
    assert ans == "yes"
    assert report["witness_unitarity"] < 1e-9


def test_equivalence_symmetric_and_k_separates():
    a = family_I_spec(3, 1, "full")
    b = family_I_spec(3, 3, "none")
    assert orbit_equivalence_invariants(a, b)[0] == "no"
    assert orbit_equivalence_invariants(b, a)[0] == "no"


def test_equivalence_orbit_dimension_separates_q():
    a = family_I_spec(3, 1, "full")   # u(2): principal orbit S^3
    b = family_I_spec(3, 1, "torus")  # T^2: principal orbit T^2
    ans, report = orbit_equivalence_invariants(a, b)
    assert ans == "no"
    assert report["principal_orbit_dims"] == (3, 2)


def _su(m):
    """su(m) spanned by the traceless parts of skew_hermitian_basis(m)."""
    gens = kahler.skew_hermitian_basis(m)
    return gens - np.trace(gens, axis1=1, axis2=2)[:, None, None] * np.eye(m) / m


def _tensor(a, b):
    """The algebra a (x) 1 + 1 (x) b on C^p (x) C^r, from stacks a on C^p and b on C^r."""
    return np.concatenate([np.kron(a, np.eye(b.shape[1])), np.kron(np.eye(a.shape[1]), b)])


def _so(m):
    """so(m): the real matrices of skew_hermitian_basis(m)."""
    gens = kahler.skew_hermitian_basis(m)
    return gens[~np.iscomplex(gens).any(axis=(1, 2))]


@pytest.mark.parametrize("k, q1, q2, ans, dims", [
    (0, kahler.skew_hermitian_basis(3), _su(3), "yes", (5, 5)),
    (0, _tensor(kahler.skew_hermitian_basis(2), kahler.skew_hermitian_basis(3)),
     _tensor(_su(2), _su(3)), "yes", (10, 10)),
    (0, _tensor(kahler.skew_hermitian_basis(2), kahler.skew_hermitian_basis(2)),
     _tensor(_su(2), _su(2)), "no", (6, 5)),
    (0, np.concatenate([_so(3), 1j * np.eye(3)[None]]), _so(3), "no", (4, 3)),
    (1, _su(2), kahler.skew_hermitian_basis(2), "yes", (3, 3)),
], ids=["u3-su3", "u2u3-su2su3", "u2u2-su2su2", "so3u1-so3", "su2-u2"])
def test_equivalence_decides_by_orbit_tangents(k, q1, q2, ans, dims):
    # u(m) and su(m) (m >= 2) share their orbits, as do the tensor algebras
    # on C^2 (x) C^3; on C^2 (x) C^2 and for so(3) the centre adds a dimension
    m = q1.shape[1]
    specs = [PolarActionSpec(n=m + k, family="I", k=k, q_basis=q) for q in (q1, q2)]
    for pair, want in ((specs, dims), (specs[::-1], dims[::-1])):
        got, report = orbit_equivalence_invariants(*pair)
        assert (got, report["principal_orbit_dims"]) == (ans, want)
        assert ans == "no" or report["tangent_gap"] <= polar.TOL_TANGENT


def test_equivalence_undetermined_for_uncertified_q():
    # same principal orbit dimension, tangents apart: t(2) against a Haar
    # conjugate of it; family I has no witness to carry one onto the other.
    # The gap at the two generic draws reads 0.2056, far above TOL_TANGENT
    a = family_I_spec(3, 1, "torus")
    A = kahler.haar_unitary(2, np.random.default_rng(3))
    b = dataclasses.replace(a, q_basis=A @ a.q_basis @ A.conj().T)
    ans, report = orbit_equivalence_invariants(a, b)
    assert ans == "undetermined"
    assert report["principal_orbit_dims"] == (2, 2) and report["tangent_gap"] > 0.1


def _largest_rank(basis, act):
    """The largest rank of act over 40 draws of the multi-draw sampler."""
    draws = sample_ranks(np.random.default_rng(1), basis, act, 40, polar.TOL_RANK)
    return max(d for _, d, _ in draws)


@pytest.mark.parametrize("grid", [(), (0.4, 1.0)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_generic_draws_find_the_largest_rank_of_many(n, grid):
    # dim [h_o, xi] over xi in sigma, in the su(1, n) model of the builders,
    # and dim q v over v in C^m (family I) or in w-perp (family II), which q
    # preserves, against check_spec and a class compared with itself
    rd = build_root_decomposition(n)
    P_p = 0.5 * (np.eye(rd.dim) - rd.theta_matrix)
    for entry in enumerate_moduli(n, grid):
        spec = entry.spec
        h, sigma = [orthonormal_rows(unit_rows(rd.coords_many(x))) for x in build_action(spec)[1:]]
        h_o = rd.from_coords_many(left_nullspace(h @ P_p) @ h)
        isotropy = _largest_rank(
            sigma, lambda xi: rd.coords_many(bracket(h_o, rd.from_coords_many(xi)[0])))
        assert check_spec(spec).dim_isotropy_orbit == isotropy, entry.label
        q = np.asarray(polar._checked_inputs(spec)[0])
        sub = spec.w.perp() if spec.family == "II" else RealSubspace.full(spec.m)
        orbit = _largest_rank(sub.basis, lambda v: real_rows(q @ v))
        _, report = orbit_equivalence_invariants(spec, spec)
        assert report["principal_orbit_dims"] == (orbit, orbit), entry.label


def test_equivalence_runs_the_input_check():
    spec = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    hermitian = dataclasses.replace(spec, q_basis=[np.diag([1.0 + 0j, 0.0])])
    for pair in ((spec, hermitian), (hermitian, spec)):
        with pytest.raises(ValueError, match="skew-Hermitian"):
            orbit_equivalence_invariants(*pair)


def test_equivalence_rejects_different_n():
    with pytest.raises(ValueError):
        orbit_equivalence_invariants(family_I_spec(3, 3, "none"), family_I_spec(2, 2, "none"))


# --- enumeration -----------------------------------------------------------------------


def test_enumerate_n2_gives_nine_classes():
    catalog = enumerate_moduli(2)
    assert len(catalog) == 9


def test_enumerate_n2_classes_are_pairwise_inequivalent():
    catalog = enumerate_moduli(2)
    for i, a in enumerate(catalog):
        for b in catalog[i + 1 :]:
            ans, _ = orbit_equivalence_invariants(a.spec, b.spec)
            assert ans != "yes"


def test_enumerate_n2_all_polar():
    for entry in enumerate_moduli(2):
        n, h, sigma = build_action(entry.spec)
        report = check_polarity(n, h, sigma, seed=6)
        assert report.verdict, entry.label


def test_enumerate_count_strictly_increases_with_grid():
    grids = [[], [math.pi / 4], [math.pi / 6, math.pi / 4], [math.pi / 6, math.pi / 4, math.pi / 3]]
    counts = [len(enumerate_moduli(3, g)) for g in grids]
    assert all(c2 > c1 for c1, c2 in zip(counts, counts[1:]))


def closed_form_dimensions(n, label):
    """(dim_normal, cohomogeneity) of a catalog class from its label alone,
    by the paper's closed form (arXiv 1208.2823), not by the program.

    Family I, h = so(1, k) + q with q in {0, u(m), t(m)} on C^m, m = n - k:
    the orbit through o is RH^k, so dim nu = 2n - k; the section is the iB
    line (k >= 1) plus a section of q on C^m, a line for u(m) and R^m for
    t(m).  Family II, h = q + b + w + g_2a with q the normalizer of w: the
    orbit tangent has the p-parts of b, w and g_2a, so dim nu =
    2n - 1 - dim w - dim b; the section is the B line (b = 0) plus one line
    per factor of constant Kahler angle of w-perp in C^{n-1}: one per
    interior angle of w, one for iR^r when w has a totally real factor R^r,
    and one for the complex complement of C.w when it is not zero."""
    family, rest = label.split(":")
    if family == "I":
        k_part, q = rest.split(",")
        k, m = int(k_part[2:]), n - int(k_part[2:])
        section = {"q=0": 0, f"q=u({m})": 1, f"q=t({m})": m}[q]
        return 2 * n - k, int(k >= 1) + section
    b_part, w_part = rest.split(",", 1)
    moduli = ast.literal_eval(w_part[2:])
    dims = {}
    for angle, dim in moduli:
        kind = "complex" if angle == 0.0 else "real" if angle == 1.570796 else angle
        dims[kind] = dims.get(kind, 0) + dim
    used = dims.get("complex", 0) // 2 + sum(d for kind, d in dims.items() if kind != "complex")
    lines = sum(kind != "complex" for kind in dims) + int(used < n - 1)
    full = b_part == "b=full"
    return 2 * n - 1 - sum(dims.values()) - int(full), int(not full) + lines


@pytest.mark.parametrize("n, grid", [(n, grid) for n in (2, 3, 4, 5, 6) for grid in ((), (0.4, 1.0))]
                         + [(n, (0.3, 0.7, 1.2)) for n in (2, 3, 4, 5)])
def test_catalog_dimensions_match_the_papers_closed_form(n, grid):
    for entry in enumerate_moduli(n, grid):
        report = check_spec(entry.spec)
        assert report.verdict, entry.label
        got = (report.dim_normal, report.cohomogeneity)
        assert got == closed_form_dimensions(n, entry.label), entry.label


def all_pairs_catalog(n, angle_grid=()):
    """The reference dedupe: each raw entry against every kept entry with
    the full orbit_equivalence_invariants."""
    kept = []
    for entry in polar._family_I_entries(n) + polar._family_II_entries(n, angle_grid):
        if all(orbit_equivalence_invariants(prev.spec, entry.spec)[0] != "yes"
               for prev in kept):
            kept.append(entry)
    return kept


def catalog_json(catalog):
    return render_json([[entry.label, entry.spec.to_json()] for entry in catalog])


GAP = (polar.GRID_MARGIN, 2 * polar.GRID_MARGIN)  # neighbours at the bound, 0 included


@pytest.mark.parametrize("n,grid", [
    *((n, grid) for n in (2, 3, 4, 5)
      for grid in ((), (math.pi / 6, math.pi / 4), (0.3, 0.7, 1.2), (0.4, 1.0))),
    # gaps at GRID_MARGIN: the closest grids the catalog admits, and no
    # two of their entries merge either
    (4, GAP), (3, GAP), (2, GAP), (5, GAP),
])
def test_enumerate_matches_all_pairs_dedupe(n, grid):
    assert catalog_json(enumerate_moduli(n, grid)) == catalog_json(all_pairs_catalog(n, grid))


@pytest.mark.parametrize("n,grid", [
    (3, ()), (4, (0.4, 1.0)), (5, (0.3, 0.7, 1.2)),
    (4, GAP), (3, (0.5, 0.5 + polar.GRID_MARGIN, 0.9)),
])
def test_enumerate_does_not_depend_on_the_seed(n, grid, capsys):
    # enumerate --seed is accepted and reads nothing
    outs = set()
    for s in (0, 1, 7, 2**31 - 2):
        argv = ["enumerate", "--n", str(n), "--angles", ",".join(map(repr, grid)), "--seed", str(s)]
        assert main(argv) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_enumerate_decomposes_each_w_once(monkeypatch):
    n, grid = 6, (0.4, 1.0)
    calls = {"oei": 0, "decompose": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polar, "orbit_equivalence_invariants",
                        counted("oei", polar.orbit_equivalence_invariants))
    monkeypatch.setattr(kahler, "decompose", counted("decompose", kahler.decompose))
    catalog = enumerate_moduli(n, grid)
    # no dedupe: one normalizer section per admissible moduli of w
    assert calls["oei"] == 0, calls
    assert calls["decompose"] <= len(polar._admissible_moduli(n - 1, grid)) < len(catalog), calls


@pytest.mark.parametrize("grid", [(), (0.5,), (0.5, 0.9), (0.3, 0.6, 1.2), (0.2, 0.4, 0.8, 1.0)])
def test_admissible_moduli_has_no_duplicates(grid):
    for m in range(9):
        moduli = [tuple(mod) for mod in polar._admissible_moduli(m, grid)]
        assert len(set(moduli)) == len(moduli)


def test_enumerate_rejects_bad_grid():
    with pytest.raises(ValueError):
        enumerate_moduli(3, [math.pi / 2])
    margin = polar.GRID_MARGIN
    for angle in (1e-6, 0.99 * margin, math.pi / 2 - 0.99 * margin, 0.0, -0.1, 2.0):
        with pytest.raises(ValueError, match=re.escape(repr(angle))) as exc:
            enumerate_moduli(4, [angle, 0.7])
        assert f"{margin:g}" in str(exc.value)
    # two grid angles closer than GRID_MARGIN: the first two pairs used to
    # be grouped by decompose, and the third to merge into one class
    for n, (lower, angle) in ((6, (0.0015, 0.001504)), (7, (0.01, 0.010003)),
                              (4, (0.5, 0.50000001)), (4, (0.7, 0.7 + 0.99 * margin))):
        with pytest.raises(ValueError, match=re.escape(repr(angle))) as exc:
            enumerate_moduli(n, [lower, angle])
        assert f"{margin:g}" in str(exc.value) and repr(lower) in str(exc.value)
    # a + GRID_MARGIN <= b, not b - a >= GRID_MARGIN, which would reject this
    assert enumerate_moduli(3, [math.pi / 2 - margin])


def chained(start, count):
    """count grid angles from start, each the previous one plus GRID_MARGIN."""
    grid = [start]
    while len(grid) < count:
        grid.append(grid[-1] + polar.GRID_MARGIN)
    return tuple(grid)


@pytest.mark.parametrize("n", range(2, 9))
def test_catalog_classes_verify_polar_with_grid_angles_at_the_bound(n):
    # near 0 the adapted frames lose accuracy: at 2e-6 from 0 some of
    # these classes cannot be framed
    margin = polar.GRID_MARGIN
    for grid in ((margin, 0.7, math.pi / 2 - margin), chained(margin, 3), chained(0.5, 3),
                 chained(0.01, 2)):
        for entry in enumerate_moduli(n, grid):
            report = check_spec(entry.spec)
            assert report.verdict, (grid, entry.label, report.to_json())


def cohomogeneity_one_labels(n, grid):
    """The labels of the cohomogeneity one actions on CH^n among the catalog
    classes, from (n, grid) alone, by the classifications of Berndt-Bruck
    (J. reine angew. Math. 541, 2001) and Berndt-Tamaru (Trans. AMS 359,
    2007): zero-dimensional factors dropped, pi/2 written 1.570796."""
    def II(b_flag, factors):
        return f"II:b={b_flag},w={[(angle, dim) for angle, dim in factors if dim]}"

    half_pi = 1.570796
    return {
        II("zero", [(0.0, 2 * (n - 1))]),  # the horosphere foliation
        II("full", [(0.0, 2 * (n - 2)), (half_pi, 1)]),  # the solvable foliation
        f"I:k=0,q=u({n})",  # the tubes around CH^k, k = 0 ...
        *(II("full", [(0.0, 2 * (k - 1))]) for k in range(1, n)),  # ... and 1 <= k <= n - 1
        f"I:k={n},q=0",  # the tubes around RH^n
        # the Berndt-Bruck actions
        *(II("full", [(0.0, 2 * (n - 1 - k)), (half_pi, k)]) for k in range(2, n)),
        *(II("full", [(0.0, 2 * (n - 1 - k)), (round(phi, 6), k)])
          for phi in grid for k in range(2, n, 2)),
    }


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("grid", [(), (0.4, 1.0), (0.3, 0.7, 1.2)])
def test_cohomogeneity_one_classes_match_the_classification(n, grid):
    found = {}
    for entry in enumerate_moduli(n, grid):
        report = check_spec(entry.spec)
        if report.cohomogeneity == 1:
            assert report.verdict, entry.label
            found[entry.label] = entry.spec
    assert set(found) == cohomogeneity_one_labels(n, grid)
    assert len(found) == 2 * n + 1 + len(grid) * ((n - 1) // 2)
    specs = list(found.items())
    for i, (label_a, a) in enumerate(specs):
        for label_b, b in specs[i + 1:]:
            assert orbit_equivalence_invariants(a, b)[0] == "no", (label_a, label_b)


# --- serialization -----------------------------------------------------------------------


def test_spec_json_roundtrip_family_II():
    spec = canonical_family_II(3, "full", [(math.pi / 3, 2)])
    spec2 = PolarActionSpec.from_json(spec.to_json())
    assert spec2.n == spec.n and spec2.family == "II" and spec2.b_flag == "full"
    assert same_span(spec2.w, spec.w)
    n, h, sigma = build_action(spec2)
    assert check_polarity(n, h, sigma).verdict


def test_spec_json_roundtrip_family_I():
    spec = family_I_spec(3, 1, "torus")
    spec2 = PolarActionSpec.from_json(spec.to_json())
    assert spec2.k == 1 and len(spec2.q_basis) == 2
    n, h, sigma = build_action(spec2)
    assert check_polarity(n, h, sigma).verdict


def test_spec_holds_q_as_one_stack_and_rejects_other_shapes():
    eye = np.eye(2, dtype=complex)
    spec = PolarActionSpec(n=3, family="I", k=1, q_basis=[1j * np.outer(e, e) for e in eye])
    assert spec.q_basis.shape == (2, 2, 2) and spec.q_basis.dtype == complex
    assert PolarActionSpec(n=3, family="II", b_flag="zero").q_basis.shape == (0, 2, 2)
    # matrices with no entries are the zero algebra, as in from_json
    empty = PolarActionSpec(n=2, family="I", k=2, q_basis=np.zeros((1, 0, 0)))
    assert empty.q_basis.shape == (0, 0, 0)
    assert check_spec(empty) == check_spec(PolarActionSpec(n=2, family="I", k=2))
    for bad in ([np.eye(3)], np.zeros((2, 2)), [np.zeros((2, 3))]):
        with pytest.raises(ValueError, match=r"q_basis must act on C\^2"):
            PolarActionSpec(n=3, family="I", k=1, q_basis=bad)


def test_report_json_has_all_residuals():
    spec = canonical_family_II(2, "full", [])
    n, h, sigma = build_action(spec)
    data = check_polarity(n, h, sigma).to_json()
    for key in (
        "is_subalgebra", "subalgebra_residual", "section_in_normal",
        "section_residual", "bracket_condition", "bracket_residual",
        "slice_condition", "dim_normal", "dim_section", "dim_isotropy_orbit",
        "cohomogeneity", "transitive", "verdict",
    ):
        assert key in data


# --- check_spec against the flat path -----------------------------------------------------

EXACT_FIELDS = ("verdict", "is_subalgebra", "section_in_normal", "bracket_condition",
                "slice_condition", "dim_normal", "dim_section", "dim_isotropy_orbit",
                "cohomogeneity", "transitive")
RESIDUALS = ("subalgebra_residual", "section_residual", "bracket_residual")


def assert_check_spec_matches_the_flat_path(spec, seed=0):
    """check_spec against check_polarity(*build_action(spec)): the same
    booleans and dimensions, the residuals to 1e-12 max(1, value)."""
    got = check_spec(dataclasses.replace(spec, seed=seed)).to_json()
    want = check_polarity(*build_action(spec), seed=seed).to_json()
    assert list(got) == list(want)
    assert {k: got[k] for k in EXACT_FIELDS} == {k: want[k] for k in EXACT_FIELDS}, spec.to_json()
    for key in RESIDUALS:
        assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(got[key])), (key, got, want)
    return got


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("grid", [(), (0.4, 1.0)])
def test_check_spec_matches_the_flat_path_on_the_catalog(n, grid):
    rng = np.random.default_rng(n)
    specs = [entry.spec for entry in enumerate_moduli(n, grid)]
    specs += [conjugated(spec, kahler.haar_unitary(n - 1, rng))
              for spec in specs if spec.family == "II"]
    for spec in specs:
        assert assert_check_spec_matches_the_flat_path(spec)["verdict"]


def benchmark_specs(workload, seed, workdir):
    """The specs every verify op of a perfbench workload reads."""
    sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return {op["id"]: PolarActionSpec.from_json(json.loads((workdir / op["argv"][1]).read_text()))
            for op in workloads.make_ops(workload, seed, str(workdir))
            if op["argv"][0] == "verify"}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_spec_matches_the_flat_path_on_the_benchmark_specs(seed, tmp_path):
    specs = benchmark_specs("verify-large", seed, tmp_path)
    specs["verify-wrong-section"] = benchmark_specs("cli-catalog", seed, tmp_path)["verify-wrong-section"]
    assert len(specs) == 10
    for op_id, spec in specs.items():
        report = assert_check_spec_matches_the_flat_path(spec, seed=spec.seed)
        if op_id == "verify-non-polar-n12":  # q = 0: every orbit has codimension 2n - 1
            assert (report["verdict"], report["cohomogeneity"]) == (False, 23)
        elif op_id == "verify-wrong-section":  # u(2) on C^2 has cohomogeneity 1, plus the B line
            assert (report["verdict"], report["cohomogeneity"]) == (False, 2)
        else:
            assert report["verdict"], op_id


def test_check_spec_matches_the_flat_path_on_false_claims():
    n = 3
    zero, full = RealSubspace.zero(n - 1), RealSubspace.full(n - 1)
    e1 = np.array([1.0 + 0j, 0])
    specs = [
        PolarActionSpec(n=n, family="II", b_flag="full", w=zero, q_section=full),
        PolarActionSpec(n=n, family="II", b_flag="zero", w=RealSubspace(2, [e1]),
                        q_section=RealSubspace(2, [e1, 1j * e1])),
        PolarActionSpec(n=4, family="I", k=1, q_basis=kahler.skew_hermitian_basis(3),
                        q_section=RealSubspace(3, list(np.eye(3, dtype=complex)))),
    ]
    for spec in specs:
        assert not assert_check_spec_matches_the_flat_path(spec)["verdict"]
