"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed assertion marks the criterion FAIL via the pytest outcome.
"""

import json
import math
import time

import numpy as np
import pytest

from chpolar import angeom, kahler, polar, su1n
from chpolar.angeom import OrbitModel, an_vector
from chpolar.cli import main as cli_main
from chpolar.kahler import RealSubspace
from chpolar.polar import PolarActionSpec, check_polarity, normalizer_section
from chpolar.su1n import bracket, build_root_decomposition, galpha_matrices, inner, norm, theta
from oracles import (LineOrbit, ad, build_action, isotropy_at, normalizer_dimension_formula,
                     project, random_subspace)


def _report(num, desc):
    print(f"ACCEPTANCE {num}: PASS - {desc}")


# --- independent oracles shared by several criteria -------------------------------


def angle_by_definition(basis_rows, v):
    A = np.array([np.concatenate([b.real, b.imag]) for b in basis_rows]).T
    jv = 1j * np.asarray(v)
    rhs = np.concatenate([jv.real, jv.imag])
    coef, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return math.acos(min(1.0, np.linalg.norm(A @ coef) / np.linalg.norm(v)))


def normalizer_dim_oracle(V):
    m = V.ambient_complex_dim
    P = np.zeros((2 * m, 2 * m))
    for b in V.basis:
        hb = np.concatenate([b.real, b.imag])
        P += np.outer(hb, hb)
    gens = kahler.skew_hermitian_basis(m)
    rows = []
    for N in gens:
        R = np.block([[N.real, -N.imag], [N.imag, N.real]])
        rows.append(((np.eye(2 * m) - P) @ R @ P).reshape(-1))
    A = np.array(rows).T
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if s.size else 0.0)))
    return len(gens) - rank


def galpha(u):
    """X(u)/2 in g_a for u in C^{n-1}."""
    return galpha_matrices(np.asarray(u, dtype=complex)[None])[0]


def isotropy_dim_oracle(rd, q_mats, xi_mat):
    A = rd.coords_many(np.array(q_mats))
    sA = np.linalg.svd(A, compute_uv=False)
    dim_a = int(np.sum(sA > 1e-9 * max(1.0, sA[0])))
    M = ad(xi_mat)
    u, s, vh = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    Bn = vh[rank:]
    stack = np.vstack([A, Bn])
    sS = np.linalg.svd(stack, compute_uv=False)
    dim_sum = int(np.sum(sS > 1e-9 * max(1.0, sS[0])))
    return dim_a + Bn.shape[0] - dim_sum


def random_moduli(m, rng):
    """Random admissible (angle, dim) multiset with well-separated angles."""
    while True:
        pool = [0.0, math.pi / 2]
        interior = []
        for _ in range(int(rng.integers(0, 3))):
            for _try in range(50):
                cand = float(rng.uniform(0.15, math.pi / 2 - 0.15))
                if all(abs(cand - a) > 0.08 for a in interior):
                    interior.append(cand)
                    break
        moduli = []
        footprint = 0
        if rng.random() < 0.5:
            c0 = int(rng.integers(1, 3))
            if footprint + c0 <= m:
                moduli.append((0.0, 2 * c0))
                footprint += c0
        for phi in interior:
            pairs = int(rng.integers(1, 3))
            if footprint + 2 * pairs <= m:
                moduli.append((phi, 2 * pairs))
                footprint += 2 * pairs
        if rng.random() < 0.6:
            mr = int(rng.integers(1, 3))
            if footprint + mr <= m:
                moduli.append((math.pi / 2, mr))
                footprint += mr
        if moduli:
            return sorted(moduli)


# --- criteria ----------------------------------------------------------------------


def test_criterion_01_kahler_roundtrip():
    """200 random assembled subspaces of C^m, m <= 8: decompose recovers the
    moduli; per-vector sampling oracle agrees; under 5 seconds."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(200):
        m = int(rng.integers(2, 9))
        moduli = random_moduli(m, rng)
        V = random_subspace(m, moduli, rng)
        dec = kahler.decompose(V)
        got = dec.moduli()
        assert [d for _, d in got] == [d for _, d in moduli]
        for (phi_got, _), (phi_want, _) in zip(got, moduli):
            assert abs(phi_got - phi_want) <= 1e-6
        # sampling oracle on one factor per subspace keeps the runtime low
        idx = int(rng.integers(0, len(dec.factors)))
        phi, sub = dec.factors[idx]
        coef = rng.standard_normal(sub.dim)
        coef /= np.linalg.norm(coef)
        v = coef @ sub.basis
        assert abs(angle_by_definition(sub.basis, v) - phi) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"200 subspaces reassembled, oracle agrees ({elapsed:.2f}s)")


def test_criterion_02_lie_model_identities():
    """Bracket identities of the root-space model to 1e-10 over 100 random
    inputs for n in {2, 3, 5}; dimensions and metric normalization exact."""
    for n in (2, 3, 5):
        rd = build_root_decomposition(n)
        dims = {k: v.stop - v.start for k, v in rd.slices.items()}
        assert dims["g_a"] == 2 * n - 2
        assert dims["g_2a"] == 1
        assert dims["k_0"] == (n - 1) ** 2
        assert abs(inner(rd.B, rd.B) - 1.0) <= 1e-12
        assert abs(inner(rd.Z, rd.Z) - 2.0) <= 1e-12
        rng = np.random.default_rng(n)
        res_a = res_b = 0.0
        k0_gens = kahler.skew_hermitian_basis(n - 1)
        for _ in range(100):
            u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            v = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            X, Y = galpha(u), galpha(v)
            T = su1n.traceless_block(n, sum(rng.standard_normal() * g for g in k0_gens))
            res_a = max(res_a, norm(bracket(theta(X), rd.Z) + galpha(1j * u)))
            M = bracket(theta(X), Y)
            res_b = max(res_b, abs(inner(T, M + theta(M)) - 2 * inner(bracket(T, X), Y)))
        assert res_a <= 1e-10, f"n={n}: {res_a}"
        assert res_b <= 1e-10, f"n={n}: {res_b}"
    _report(2, "bracket identities, dimensions, metric normalization for n in {2,3,5}")


def test_criterion_03_an_bracket_formula():
    """The a+n structure equations match the matrix commutator to 1e-10."""
    worst = 0.0
    for n in (2, 3, 4):
        rd = build_root_decomposition(n)
        rng = np.random.default_rng(10 * n)
        for _ in range(40):
            def rand_an():
                return an_vector(
                    rng.standard_normal(),
                    rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
                    rng.standard_normal(),
                )
            v1, v2 = rand_an(), rand_an()
            def to_mat(v):
                return v[0].real * rd.B + galpha(v[1:]) + v[0].imag * rd.Z
            br = angeom.an_bracket(v1, v2)
            worst = max(worst, norm(bracket(to_mat(v1), to_mat(v2)) - to_mat(br)))
    assert worst <= 1e-10, worst
    _report(3, f"a+n bracket formula vs commutator, residual {worst:.2e}")


def test_criterion_04_curvature_normalization():
    """Holomorphic sectional curvature -1 at 100 random directions;
    torsion-free and metric-compatible to 1e-10."""
    rng = np.random.default_rng(99)
    worst_hol = worst_tor = worst_met = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        def rand_an():
            return an_vector(
                rng.standard_normal(),
                rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
                rng.standard_normal(),
            )
        X, Y, W = rand_an(), rand_an(), rand_an()
        worst_hol = max(worst_hol, abs(angeom.holomorphic_sectional_curvature(X) + 1.0))
        tor = angeom.levi_civita(X, Y) - angeom.levi_civita(Y, X) - angeom.an_bracket(X, Y)
        scale = max(1.0, angeom.norm(X) * angeom.norm(Y))
        worst_tor = max(worst_tor, angeom.norm(tor) / scale)
        met = angeom.inner_product(angeom.levi_civita(X, Y), W) + angeom.inner_product(
            Y, angeom.levi_civita(X, W)
        )
        worst_met = max(worst_met, abs(met) / max(1.0, scale * angeom.norm(W)))
    assert worst_hol <= 1e-7, worst_hol
    assert worst_tor <= 1e-10, worst_tor
    assert worst_met <= 1e-10, worst_met
    _report(4, f"curvature -1 (max dev {worst_hol:.2e}), torsion/metric residuals ok")


def test_criterion_05_mean_curvature():
    """Numeric shape-operator trace equals the closed form on 100 random
    configurations to 1e-9; the two special cases are exact to 1e-10."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        a = float(rng.standard_normal() * 2)
        rows = [rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)]
        if abs(a) < 1e-2 and np.linalg.norm(rows[0]) < 1e-2:
            a = 1.0
        max_w = max(0, n - 2)
        for _ in range(int(rng.integers(0, max_w + 1))):
            rows.append(rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
        sub = RealSubspace(n - 1, rows)
        scale = float(rng.uniform(0.5, 2.0))
        orbit = LineOrbit(n, a, scale * sub.basis[0], list(sub.basis[1:]))
        diff = angeom.mean_curvature(orbit) - orbit.mean_curvature_closed_form()
        worst = max(worst, angeom.norm(diff))
    assert worst <= 1e-9, worst
    for n in (2, 3, 4):
        for m in range(0, n - 1):
            eye = np.eye(n - 1, dtype=complex)
            w = [eye[j] for j in range(m)]
            flat = OrbitModel.from_flag(n, "full", w)
            assert angeom.norm(angeom.mean_curvature(flat)) <= 1e-10
            horo = OrbitModel.from_flag(n, "zero", w)
            want = an_vector(0.5 * (2 + m), np.zeros(n - 1, dtype=complex), 0.0)
            assert angeom.norm(angeom.mean_curvature(horo) - want) <= 1e-10
    _report(5, f"mean curvature trace vs closed form, worst {worst:.2e}")


def _acceptance_catalog():
    def canonical_II(n, b_flag, moduli):
        w = kahler.canonical_subspace(n - 1, moduli)
        return PolarActionSpec(
            n=n, family="II", b_flag=b_flag, w=w,
            q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
        )

    def fam_I(n, k, kind):
        m = n - k
        if kind == "none":
            return PolarActionSpec(n=n, family="I", k=k)
        eye = np.eye(m, dtype=complex)
        if kind == "full":
            return PolarActionSpec(
                n=n, family="I", k=k, q_basis=kahler.skew_hermitian_basis(m),
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

    pi = math.pi
    return [
        ("n=2 II b=a w=0", canonical_II(2, "full", [])),
        ("n=2 II b=0 w=0", canonical_II(2, "zero", [])),
        ("n=2 II b=a w tot.real", canonical_II(2, "full", [(pi / 2, 1)])),
        ("n=2 II b=0 w complex (horosphere)", canonical_II(2, "zero", [(0.0, 2)])),
        ("n=2 I k=2", fam_I(2, 2, "none")),
        ("n=2 I k=0 u(2)", fam_I(2, 0, "full")),
        ("n=3 II b=a w angle pi/3", canonical_II(3, "full", [(pi / 3, 2)])),
        ("n=3 II b=0 w angle pi/3", canonical_II(3, "zero", [(pi / 3, 2)])),
        ("n=3 II b=a w tot.real dim 2", canonical_II(3, "full", [(pi / 2, 2)])),
        ("n=3 I k=1 u(2)", fam_I(3, 1, "full")),
        ("n=3 I k=1 torus", fam_I(3, 1, "torus")),
        ("n=4 II b=a w mixed {0, pi/2}", canonical_II(4, "full", [(0.0, 2), (pi / 2, 1)])),
        ("n=4 II b=0 w mixed {pi/3, pi/2}", canonical_II(4, "zero", [(pi / 3, 2), (pi / 2, 1)])),
        ("n=4 I k=3 u(1)", fam_I(4, 3, "full")),
        # the full angle mix {0, pi/3, pi/2} needs complex footprint 4,
        # hence it first fits in C^4 = g_a of CH^5
        ("n=5 II b=a w mixed {0, pi/3, pi/2}",
         canonical_II(5, "full", [(0.0, 2), (pi / 3, 2), (pi / 2, 1)])),
    ]


def test_criterion_06_polarity_soundness():
    """All constructed catalog entries verify polar; the crafted negative is
    robustly rejected with normalized bracket residual >= 0.1."""
    catalog = _acceptance_catalog()
    assert len(catalog) >= 12
    for label, spec in catalog:
        report = check_polarity(*build_action(spec), seed=7)
        assert report.verdict, (label, report.to_json())
        assert report.bracket_residual <= 1e-9, label
    rd = build_root_decomposition(3)
    h = np.array([rd.B, rd.Z])
    sigma = rd.block("g_a") - theta(rd.block("g_a"))
    neg = check_polarity(3, h, sigma, seed=7)
    assert not neg.verdict
    assert neg.bracket_residual >= 0.1
    _report(6, f"{len(catalog)} constructed examples polar; negative residual "
               f"{neg.bracket_residual:.3f} >= 0.1")


def test_criterion_07_isotropy_dimensions():
    """Isotropy dimensions match the brute-force nullspace oracle on 50
    random (q, xi) pairs."""
    rng = np.random.default_rng(777)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        rd = build_root_decomposition(n)
        gens = kahler.skew_hermitian_basis(n - 1)
        size = int(rng.integers(1, len(gens) + 1))
        picks = rng.choice(len(gens), size=size, replace=False)
        coeffs = rng.standard_normal((size, size))
        q = [sum(c * gens[i] for c, i in zip(row, picks)) for row in coeffs]
        u = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
        got = len(isotropy_at(n, q, u))
        assert got == isotropy_dim_oracle(rd, su1n.traceless_block(n, np.array(q)), galpha(u))
    _report(7, "isotropy dimensions match the nullspace oracle on 50 pairs")


def test_criterion_08_equivalence_invariants():
    """Family, b-flag and angle-moduli mismatches are all 'no'; identical
    specs are 'yes'; the congruence witness is unitary and maps w1 to w2 to
    1e-9."""
    pi = math.pi

    def canonical_II(n, b_flag, moduli, w=None):
        w = w if w is not None else kahler.canonical_subspace(n - 1, moduli)
        return PolarActionSpec(
            n=n, family="II", b_flag=b_flag, w=w,
            q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
        )

    fam_I = PolarActionSpec(n=3, family="I", k=3)
    a = canonical_II(3, "full", [(pi / 3, 2)])
    b = canonical_II(3, "zero", [(pi / 3, 2)])
    c = canonical_II(3, "full", [(pi / 4, 2)])
    assert polar.orbit_equivalence_invariants(fam_I, a)[0] == "no"
    assert polar.orbit_equivalence_invariants(a, b)[0] == "no"
    assert polar.orbit_equivalence_invariants(a, c)[0] == "no"
    assert polar.orbit_equivalence_invariants(a, a)[0] == "yes"

    rng = np.random.default_rng(31)
    w1 = kahler.canonical_subspace(2, [(pi / 3, 2)])
    A = kahler.haar_unitary(2, rng)
    w2 = RealSubspace(2, [A @ v for v in w1.basis])
    ok, witness = kahler.congruent(w1, w2)
    assert ok
    unit_resid = np.abs(witness @ witness.conj().T - np.eye(2)).max()
    map_resid = max(
        np.linalg.norm((witness @ v) - project(w2, witness @ v)) for v in w1.basis
    )
    assert unit_resid <= 1e-9 and map_resid <= 1e-9
    spec1 = canonical_II(3, "full", None, w=w1)
    spec2 = canonical_II(3, "full", None, w=w2)
    assert polar.orbit_equivalence_invariants(spec1, spec2)[0] == "yes"
    _report(8, f"invariant mismatches refused; witness residuals "
               f"{unit_resid:.1e}/{map_resid:.1e}")


def test_criterion_09_moduli_count(tmp_path):
    """cmd_enumerate(2, []) returns exactly 9 classes; the n = 3 count is
    strictly increasing in the size of the angle grid; under 10 seconds."""
    t0 = time.perf_counter()
    out = tmp_path / "cat.json"
    rc = cli_main(["enumerate", "--n", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["count"] == 9, data["count"]
    counts = []
    for grid in ([], [math.pi / 4], [math.pi / 6, math.pi / 4],
                 [math.pi / 6, math.pi / 4, math.pi / 3]):
        counts.append(len(polar.enumerate_moduli(3, grid)))
    assert all(c2 > c1 for c1, c2 in zip(counts, counts[1:])), counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(9, f"n=2 count 9; n=3 counts {counts} strictly increasing ({elapsed:.2f}s)")


def test_criterion_10_normalizer_dimension():
    """Closed-form normalizer dimension equals the nullspace oracle on 100
    random subspaces, exact integer match."""
    rng = np.random.default_rng(4321)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        moduli = random_moduli(m, rng)
        V = random_subspace(m, moduli, rng)
        formula = normalizer_dimension_formula(V)
        algebra = len(kahler.normalizer_algebra(V))
        oracle = normalizer_dim_oracle(V)
        assert formula == algebra == oracle, (moduli, formula, algebra, oracle)
    _report(10, "normalizer formula == nullspace oracle on 100 subspaces")
