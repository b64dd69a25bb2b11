"""A spec may name its q ("u", "t" or "normalizer") in place of spelling
out q_basis: the closed-form frames against their numerical oracles, the
named catalog against its explicit form, the JSON and CLI rules, and what
naming mends (compare of conjugate normalizers, verify at n = 64)."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from chpolar import kahler, polar, su1n
from chpolar._linalg import rank, real_rows
from chpolar.cli import main
from chpolar.kahler import RealSubspace
from chpolar.polar import PolarActionSpec, check_spec, enumerate_moduli, normalizer_section
from oracles import (normalizer_dimension_formula, normalizer_nullspace, normalizer_section_oracle,
                     random_subspace, same_matrix_span, u_frame_apply, with_q_basis)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def unit_basis(m):
    """skew_hermitian_basis(m), each matrix at Frobenius norm 1."""
    gens = kahler.skew_hermitian_basis(m)
    return gens / np.linalg.norm(gens, axis=(1, 2), keepdims=True)


# --- the frame of u(m) without its stack -------------------------------------------


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 3), (4, 7), (6, 7)])
def test_u_frame_apply_is_the_frame_times_vectors(m, n):
    rng = np.random.default_rng(m + n)
    frame = su1n.u_matrices(np.eye(m * m), m, n)
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    Z = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    assert np.abs(u_frame_apply(z, n) - frame @ z).max() <= 1e-15
    assert np.abs(u_frame_apply(Z, n) - frame @ Z).max() <= 1e-15


def gram(rows):
    """The real Gram matrix R^T R of complex rows, as real rows R."""
    R = real_rows(rows)
    return R.T @ R


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("gap", [1, 2, 5])  # n + 1 - m
def test_the_u_frame_acts_on_a_vector_in_closed_form(m, gap):
    # 2m + 1 rows with the Gram matrix of the m^2 frame products N z: the
    # same span, the sphere's tangent of dimension 2m - 1, at any scale of z
    n = m + gap - 1
    q = polar._UFrame(m, n)
    rng = np.random.default_rng(10 * m + gap)
    Z = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
    moved, want = q @ Z, u_frame_apply(Z, n)
    assert moved.shape == (2 * m + 1, m, 3)
    for z, rows, oracle in zip(Z.T, moved.transpose(2, 0, 1), want.transpose(2, 0, 1)):
        assert np.abs(gram(rows) - gram(oracle)).max() <= 1e-13 * np.vdot(z, z).real
        assert rank(real_rows(rows)) == 2 * m - 1
        assert np.abs((q @ z) - rows).max() <= 1e-15 * np.linalg.norm(z)
        for scale in (1e-150, 1e150):
            assert np.abs((q @ (scale * z)) / scale - rows).max() <= 1e-14 * np.linalg.norm(z)
    zero = q @ np.zeros(m)
    assert zero.shape == (2 * m + 1, m) and rank(real_rows(zero)) == 0


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3), (3, 3), (4, 7)])
def test_u_orthonormal_makes_a_frobenius_frame_orthonormal_in_the_metric(m, n):
    # the unit skew_hermitian_basis has m matrices with a trace, the
    # normalizer of a complex line two blocks with one each
    line = RealSubspace(m, [np.eye(m)[0], 1j * np.eye(m)[0]])
    for S in (unit_basis(m), kahler.normalizer_algebra(line)):
        rows = su1n.u_coords(su1n.u_orthonormal(S, n), n)
        assert np.abs(rows @ rows.T - np.eye(len(S))).max() <= 1e-14
        assert same_matrix_span(su1n.u_orthonormal(S, n), polar._q_frame(S, m, n)[1], n)


# --- kahler: the normalizer in closed form ------------------------------------------


def _frame_agrees_with_the_svd_oracle(V):
    """normalizer_algebra(V), the closed form: orthonormal for Re tr(N* M),
    skew-Hermitian, of the formula's dimension, normalizing V, and spanning
    what the SVD null space normalizer_nullspace(V) spans."""
    frame = kahler.normalizer_algebra(V)
    m = V.ambient_complex_dim
    gram = np.einsum("iab,jab->ij", frame.conj(), frame).real
    frames = [polar._q_frame(q, m, m + 1)[1] for q in (frame, normalizer_nullspace(V))]
    return (len(frame) == normalizer_dimension_formula(V)
            and np.abs(gram - np.eye(len(frame))).max(initial=0.0) <= 1e-12
            and np.abs(frame + frame.conj().transpose(0, 2, 1)).max(initial=0.0) <= 1e-12
            and np.linalg.norm(kahler.normalizer_residual(V, frame)) <= 1e-12
            and same_matrix_span(*frames, m + 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_normalizer_frame_matches_the_svd_oracle_on_the_catalog(n):
    for moduli in polar._admissible_moduli(n - 1, (0.4, 1.0)):
        assert _frame_agrees_with_the_svd_oracle(kahler.canonical_subspace(n - 1, moduli)), moduli


def test_normalizer_frame_matches_the_svd_oracle_on_haar_moved_subspaces():
    rng = np.random.default_rng(23)
    for moduli in ([(0.0, 2), (0.4, 2)], [(1.0, 4), (math.pi / 2, 1)],
                   [(0.4, 2), (1.0, 2), (math.pi / 2, 1)], [(0.0, 4), (math.pi / 2, 2)],
                   [(0.0, 10)], []):
        assert _frame_agrees_with_the_svd_oracle(random_subspace(5, moduli, rng)), moduli


# --- polar: u(m) as a frame that is never formed ------------------------------------


def test_the_whole_u_frame_multiplies_like_its_stack():
    # q @ z is not stack @ z, but has its Gram matrix, so the residual of
    # [q, w] has the same norm
    q = polar._UFrame(3, 5)
    stack = np.asarray(q)
    assert len(q) == len(stack) == 9
    assert np.array_equal(stack, su1n.u_matrices(np.eye(9), 3, 5))
    z = np.array([1.0, 2j, -0.5])
    assert np.abs(gram(q @ z) - gram(stack @ z)).max() <= 1e-15
    w = RealSubspace(3, [np.eye(3)[0]])
    leaks = [np.linalg.norm(kahler.normalizer_residual(w, mats)) for mats in (q, stack)]
    assert abs(leaks[0] - leaks[1]) <= 1e-15


# --- named against explicit, on the catalog ----------------------------------------


EXACT_FIELDS = ("verdict", "is_subalgebra", "section_in_normal", "bracket_condition",
                "slice_condition", "dim_normal", "dim_section", "dim_isotropy_orbit",
                "cohomogeneity", "transitive")
RESIDUALS = ("subalgebra_residual", "section_residual", "bracket_residual")


def explicit(spec):
    """The spec with its named q spelled out by the numerical constructions
    the catalog used before it named q: skew_hermitian_basis for u(m), its
    first m matrices for t(m), normalizer_nullspace (an SVD null space) for
    the normalizer of w."""
    if spec.q_type == "normalizer":
        return replace(spec, q_type=None, q_basis=normalizer_nullspace(spec.w))
    gens = kahler.skew_hermitian_basis(spec.m)
    return replace(spec, q_type=None, q_basis=gens if spec.q_type == "u" else gens[:spec.m])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("grid", [(), (0.4, 1.0)])
def test_named_q_agrees_with_the_explicit_q_on_the_catalog(n, grid):
    for entry in enumerate_moduli(n, grid):
        named = entry.spec
        assert named.q_type is not None and not len(named.q_basis), entry.label
        spelled = explicit(named)
        q_named, q_explicit = np.asarray(polar._spec_q(named)), polar._checked_inputs(spelled)[0]
        assert same_matrix_span(q_named, q_explicit, n), entry.label
        # the closure the named path skips, measured on the named frame
        assert polar._checked_inputs(with_q_basis(named))[1] <= 1e-12, entry.label
        got, want = check_spec(named).to_json(), check_spec(spelled).to_json()
        assert {k: got[k] for k in EXACT_FIELDS} == {k: want[k] for k in EXACT_FIELDS}, entry.label
        for key in RESIDUALS:
            assert abs(got[key] - want[key]) <= 1e-12, (entry.label, key, got[key], want[key])


# --- JSON and the input rules ---------------------------------------------------------


def line_spec(n, **fields):
    """Family II, b = 0, q = u(n - 1) by name and the section R e_1 (B line
    included), unless fields say otherwise."""
    m = n - 1
    fields = {"q_type": "u", "q_section": RealSubspace(m, [np.eye(m)[0]]), **fields}
    return PolarActionSpec(n=n, family="II", b_flag="zero", **fields)


def test_named_spec_json_roundtrip():
    spec = line_spec(3)
    data = spec.to_json()
    assert data["q"] == {"type": "u"} and "q_basis" not in data
    back = PolarActionSpec.from_json(data)
    assert back.q_type == "u" and back.q_basis.shape == (0, 2, 2)
    assert back.to_json() == data


U2_JSON = PolarActionSpec(n=3, family="II", b_flag="zero",
                          q_basis=kahler.skew_hermitian_basis(2)).to_json()["q_basis"]


@pytest.mark.parametrize("change, message", [
    (lambda d: d.update(q_basis=[]), "not both"),
    (lambda d: d.update(q_basis=U2_JSON), "not both"),
    (lambda d: d.update(q={"type": "banana"}), "q type must be one of u, t, normalizer"),
    (lambda d: d.update(q={"type": 3}), "q type must be one of"),
    (lambda d: d.update(q="u"), 'q must be {"type": name}'),
    (lambda d: d.update(q={"type": "u", "m": 2}), 'q must be {"type": name}'),
    (lambda d: d.update(q={}), 'q must be {"type": name}'),
], ids=["both-empty", "both", "unknown-type", "number-type", "bare-name", "extra-key", "no-type"])
def test_malformed_q_exits_2(tmp_path, capsys, change, message):
    data = line_spec(3).to_json()
    assert main(["verify", write_json(tmp_path, "good.json", data)]) == 0
    capsys.readouterr()
    change(data)
    assert main(["verify", write_json(tmp_path, "bad.json", data)]) == 2
    assert message in capsys.readouterr().err


def test_the_normalizer_names_a_family_II_q(tmp_path, capsys):
    data = PolarActionSpec(n=3, family="I", k=1, q_type="u").to_json()
    data["q"] = {"type": "normalizer"}
    assert main(["verify", write_json(tmp_path, "s.json", data)]) == 2
    assert "needs family II" in capsys.readouterr().err
    with pytest.raises(ValueError, match="not both"):
        PolarActionSpec(n=3, family="I", k=1, q_type="u", q_basis=kahler.skew_hermitian_basis(2))


def test_named_u_and_t_are_measured_against_w(tmp_path, capsys):
    e1 = np.eye(2)[0]
    # u(2) does not normalize a real line: the [q, w] leak is an input error
    leaky = line_spec(3, w=RealSubspace(2, [e1]), q_section=RealSubspace(2, [np.eye(2)[1]]))
    assert main(["verify", write_json(tmp_path, "u.json", leaky.to_json())]) == 2
    assert "q does not normalize w" in capsys.readouterr().err
    # t(2) keeps the complex line C e_1, and acts on C e_2 with the section R e_2
    torus = PolarActionSpec(n=3, family="II", b_flag="full", q_type="t",
                            w=RealSubspace(2, [e1, 1j * e1]),
                            q_section=RealSubspace(2, [np.eye(2)[1]]))
    assert polar._checked_inputs(torus)[1] == 0.0
    assert main(["verify", write_json(tmp_path, "t.json", torus.to_json())]) == 0


def normalizer_spec(n, w, b_flag="full"):
    """The family II spec with b_flag, w, its named normalizer and normalizer_section(w)."""
    return PolarActionSpec(n=n, family="II", b_flag=b_flag, q_type="normalizer", w=w,
                           q_section=normalizer_section(w))


def haar_image(w, seed):
    """w moved by the Haar unitary of seed ``seed``."""
    m = w.ambient_complex_dim
    return RealSubspace(m, w.basis @ kahler.haar_unitary(m, np.random.default_rng(seed)).T)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_the_section_has_one_line_in_each_factor_of_w_perp(n):
    # normalizer_section reads its lines off decompose(w); the oracle reads
    # them off decompose(w-perp), a second split.  Both give one line per
    # factor of w-perp, in w-perp
    for moduli in polar._admissible_moduli(n - 1, (0.3, 0.9)):
        canonical = kahler.canonical_subspace(n - 1, moduli)
        for w in (canonical, *(haar_image(canonical, seed) for seed in range(4))):
            section, wperp = normalizer_section(w), w.perp()
            assert wperp.contains_subspace(section), moduli  # to _linalg.TOL_RANK
            assert section.dim == normalizer_section_oracle(w).dim, moduli
            for _, factor in kahler.decompose(wperp).factors:
                assert rank(real_rows(section.basis) @ real_rows(factor.basis).T) == 1, moduli


@pytest.mark.parametrize("phi, spread, code", [(0.1, 1e-8, 0), (1e-4, 1e-8, 0), (1e-4, 1e-5, 0)])
def test_a_named_normalizer_is_measured_against_w(tmp_path, capsys, phi, spread, code):
    # decompose groups two pairs 1e-8 apart into one factor, so the named q
    # is u(2) on it, which leaks from w with a closure residual of
    # spread / sqrt(2), below the input bound, as the spelled-out q; pairs
    # 1e-5 apart are two factors, and their normalizer leaks nothing
    spec = normalizer_spec(5, kahler.canonical_subspace(4, [(phi, 2), (phi + spread, 2)]))
    leak = spread / math.sqrt(2.0) if spread <= kahler.TOL_ANGLE else 0.0
    for form in (spec, with_q_basis(spec)):
        assert main(["verify", write_json(tmp_path, "s.json", form.to_json())]) == code
        report = json.loads(capsys.readouterr().out)
        assert abs(report["subalgebra_residual"] - leak) <= 1e-11


FRAME_FLOOR = 2e-6  # 1e-6 and 1e-7 from 0 lie below kahler.FRAME_FLOOR = 5e-6, an input error


@pytest.mark.parametrize("phi", [1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("edge", [0.0, math.pi / 2])
@pytest.mark.parametrize("n, pairs", [(4, 1), (8, 3)])
@pytest.mark.parametrize("seed", [None, 5])
def test_a_factor_near_0_or_pi_2_verifies_polar(phi, edge, n, pairs, seed):
    # every family II action is polar (Theorem A); decompose must keep a
    # factor phi from 0 or pi/2 apart from the factors at 0 or pi/2, from
    # which it lies only phi^2 on cos^2
    angle = abs(edge - phi)
    w = kahler.canonical_subspace(n - 1, [(angle, 2 * pairs)])
    if seed is not None:
        w = haar_image(w, seed)
    assert kahler.same_moduli(kahler.decompose(w).moduli(), [(angle, 2 * pairs)])
    try:
        report = check_spec(normalizer_spec(n, w))
    except ValueError:
        assert edge == 0.0 and phi < FRAME_FLOOR  # an input error, never a false verdict
        return
    assert report.verdict, report.to_json()


@pytest.mark.parametrize("n, moduli, seed", [(6, [(2e-6, 2)], 101), (8, [(3e-6, 6)], 100),
                                            (4, [(1.5e-8, 2)], 5)])
@pytest.mark.parametrize("b_flag", ["full", "zero"])
def test_verify_of_a_factor_below_the_frame_floor_exits_2(tmp_path, capsys, n, moduli, seed, b_flag):
    # an interior factor below kahler.FRAME_FLOOR is an input error naming
    # the floor, never a false "not polar" or a frame of NaN
    spec = normalizer_spec(n, haar_image(kahler.canonical_subspace(n - 1, moduli), seed), b_flag)
    assert main(["verify", write_json(tmp_path, "s.json", spec.to_json())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FRAME_FLOOR" in captured.err


def test_compare_of_a_factor_below_the_frame_floor_exits_2(tmp_path, capsys):
    # the witness below the floor is an input error, not a NaN unitary
    w = kahler.canonical_subspace(3, [(1.5e-8, 2)])
    A = kahler.haar_unitary(3, np.random.default_rng(5))
    q = normalizer_nullspace(w)  # kahler.normalizer_algebra(w) raises below the floor
    image = RealSubspace(3, w.basis @ A.T)
    paths = [write_json(tmp_path, name, PolarActionSpec(
                 n=4, family="II", b_flag="full", w=v, q_basis=qv,
                 q_section=normalizer_section(v)).to_json())
             for name, v, qv in (("a.json", image, A @ q @ A.conj().T), ("c.json", w, q))]
    assert main(["compare", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FRAME_FLOOR" in captured.err


@pytest.mark.parametrize("phi", [kahler.FRAME_FLOOR, 6e-6, 8e-6, 1e-5, 2e-5, 5e-5])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_a_factor_at_or_above_the_frame_floor_verifies_polar_in_any_unitary_frame(phi, n):
    # every family II action is polar (Theorem A), in every unitary image
    # of w; the catalog puts its angles at least 2 * FRAME_FLOOR from 0.
    # A section read off a second split, of w-perp, reads n = 6, [(6e-6,
    # 2), (pi/2, 1)] at seed 100 and n = 8, [(8e-6, 6)] at seed 104 as not
    # polar; a frame taken against the factor, not against w, leaks from w
    # beside a complex factor ("q does not normalize w")
    shapes = [[(phi, 2 * ((n - 1) // 2))], [(phi, 2), (math.pi / 2, 1)], [(0.0, 2), (phi, 2)],
              *([[(phi, 2), (0.7, 2)]] if n > 4 else [])]  # the last needs C^4
    for moduli in shapes:
        w = kahler.canonical_subspace(n - 1, moduli)
        for seed in range(100, 108):
            for b_flag in ("full", "zero"):
                report = check_spec(normalizer_spec(n, haar_image(w, seed), b_flag))
                assert report.verdict, (moduli, seed, b_flag, report.to_json())


def test_a_complex_factor_beside_one_near_0_verifies_polar_in_a_unitary_frame():
    # polar by Theorem A.  The named normalizer frames each pair against w;
    # a frame taken against its factor leaked 1.2e-7 from w here
    w = haar_image(kahler.canonical_subspace(4, [(0.0, 2), (1e-5, 2)]), 100)
    assert check_spec(normalizer_spec(5, w)).verdict


@pytest.mark.parametrize("c, gap, seed", [
    (0.3, 1e-7, 7), (0.3, 1e-6, 0), (1.2, 1e-6, 1), (math.pi / 4, 1e-7, 1), (1.2, 2e-8, 0),
    (0.05, 2e-8, 17), (0.05, 1e-7, 0), (1e-3, 2e-8, 11), (0.01, 2e-8, 1),
])
def test_two_pairs_1e_7_apart_verify_polar_in_a_unitary_frame(c, gap, seed):
    # polar by Theorem A.  The named normalizer and the section come from
    # one split of w; a section read off a second split, of w-perp, agrees
    # with it only to about eps / gap, and reads the first five as not
    # polar.  Near 0 (the last four) the split reads the pairs off singular
    # values sqrt 2 sin(phi/2), at least gap/2 apart; a split on the
    # eigenvalues cos(phi), gap sin(phi) apart, reads them as not polar
    w = random_subspace(4, [(c - gap / 2, 2), (c + gap / 2, 2)], np.random.default_rng(seed))
    assert check_spec(normalizer_spec(5, w, "zero")).verdict


@pytest.mark.parametrize("n, moduli", [
    (8, [(3e-4, 6)]), (8, [(5e-4, 2), (0.7, 2)]), (8, [(1e-4, 6)]),
    (6, [(0.5, 2), (0.5 + 1e-6, 2)]), (6, [(0.5, 2), (0.5 + 1e-7, 2)]),
    *((n, moduli) for phi in (1e-4, 1e-5) for n in range(4, 9)
      for moduli in ([(phi, 2)], [(0.0, 2), (phi, 2)], [(math.pi / 2 - phi, 2)],
                     *([[(phi, 2), (0.7, 2)]] if n > 4 else []))),  # the last needs C^4
])
def test_catalog_shaped_w_near_0_pi_2_and_each_other_verify_polar(n, moduli):
    # catalog-shaped w with factors near 0, near pi/2 and near each other:
    # each action is polar by Theorem A
    report = check_spec(normalizer_spec(n, kahler.canonical_subspace(n - 1, moduli)))
    assert report.verdict, report.to_json()


# --- what naming mends ------------------------------------------------------------------


@pytest.mark.parametrize("phi", [0.1, 0.01, 1e-4])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_compare_of_conjugate_named_normalizers_says_yes(tmp_path, capsys, phi, seed):
    # w has two pairs at phi and phi + 1e-8: two normalizers of congruent w
    # are conjugate by construction, so their orbits on w-perp share their
    # tangents once the witness carries one onto the other
    w = kahler.canonical_subspace(4, [(phi, 2), (phi + 1e-8, 2)])
    A = kahler.haar_unitary(4, np.random.default_rng(seed))
    image = RealSubspace(4, w.basis @ A.T)
    specs = [normalizer_spec(5, v) for v in (w, image)]
    paths = [write_json(tmp_path, f"{i}.json", s.to_json()) for i, s in enumerate(specs)]
    assert main(["compare", *paths]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["reason"] == "q-orbits on w-perp share their tangents at every sample through the witness"
    assert report["tangent_gap"] <= polar.TOL_TANGENT


@pytest.mark.parametrize("spec", [line_spec(8), PolarActionSpec(n=8, family="I", k=1, q_type="u")],
                         ids=["II", "I"])
def test_compare_of_named_u_specs_never_forms_the_stack_of_u(tmp_path, capsys, monkeypatch, spec):
    # compare applies q only to vectors, so the (m^2, m, m) stack is not needed
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("the stack of u(m) was formed")

    monkeypatch.setattr(polar._UFrame, "__array__", refuse)
    path = write_json(tmp_path, "u.json", spec.to_json())
    assert main(["compare", path, path]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"] == "yes"


@pytest.mark.parametrize("phi", [0.5, 0.1, 0.01, 1e-4])
@pytest.mark.parametrize("spread", [1e-10, 1e-9, 1e-8])
def test_a_spelled_out_normalizer_and_its_unitary_image_verify_and_compare(
        tmp_path, capsys, phi, spread):
    # w has two pairs spread apart, which decompose groups into one factor:
    # normalizer_algebra(w) spelled out as q_basis is the named normalizer,
    # u(2) on that factor, so it is closed, its section has one line for
    # the factor, and compare finds it conjugate to its Haar image.  The SVD
    # null space normalizer_nullspace(w) splits the pairs into u(1) + u(1).
    w = kahler.canonical_subspace(4, [(phi, 2), (phi + spread, 2)])
    spec = PolarActionSpec(n=5, family="II", b_flag="full", w=w,
                           q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w))
    a = write_json(tmp_path, "a.json", spec.to_json())
    assert check_spec(spec).verdict
    for seed in (11, 12, 13):
        A = kahler.haar_unitary(4, np.random.default_rng(seed))
        image = replace(spec, w=RealSubspace(4, w.basis @ A.T), q_basis=A @ spec.q_basis @ A.conj().T,
                        q_section=RealSubspace(4, spec.q_section.basis @ A.T))
        assert check_spec(image).verdict, seed
        assert main(["compare", a, write_json(tmp_path, "b.json", image.to_json())]) == 0, seed
        assert json.loads(capsys.readouterr().out)["equivalent"] == "yes"


def test_compare_of_a_named_and_an_explicit_normalizer_goes_through_the_witness():
    w = kahler.canonical_subspace(3, [(0.4, 2), (math.pi / 2, 1)])
    A = kahler.haar_unitary(3, np.random.default_rng(5))
    image = RealSubspace(3, w.basis @ A.T)
    named = PolarActionSpec(n=4, family="II", b_flag="zero", q_type="normalizer", w=w)
    spelled = PolarActionSpec(n=4, family="II", b_flag="zero", w=image,
                              q_basis=kahler.normalizer_algebra(image))
    answer, report = polar.orbit_equivalence_invariants(named, spelled)
    assert answer == "yes" and report["witness_unitarity"] < 1e-12


def test_verify_of_a_named_u_line_spec_at_n_64(tmp_path, capsys):
    # the explicit spec is 190 MB of JSON and an SVD of a 3969 x 3969 matrix
    spec = line_spec(64)
    assert main(["verify", write_json(tmp_path, "line.json", spec.to_json())]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["dim_normal"], report["cohomogeneity"]) == (True, 127, 2)
