"""Metamorphic properties of the polarity criterion and of compare.

Verdict, dim_normal and cohomogeneity of check_spec do not change under a
unitary conjugation of a family II spec, a positive rescaling and invertible
real change of basis of q_basis, w and the section, or a change of seed; and
the residuals of the flat check_polarity do not depend on the bases of h
and sigma it is given.  A spanning vector within 1e-9 of another adds no
direction: verify and decompose read the same span.  The compare answer is
symmetric, and never 'no' for a spec against its Haar-conjugated copy with
q rescaled.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chpolar import cli, kahler, polar
from chpolar.kahler import RealSubspace
from chpolar.polar import (
    PolarActionSpec,
    check_polarity,
    check_spec,
    orbit_equivalence_invariants,
)
from oracles import build_action, with_q_basis


def _false_claims():
    """Specs whose claimed section is not one, with nonzero residuals."""
    eye2, eye3 = np.eye(2, dtype=complex), np.eye(3, dtype=complex)
    return [
        # u(2) on C^2 has the one-line section, not R^2
        PolarActionSpec(n=3, family="II", b_flag="zero", q_basis=kahler.skew_hermitian_basis(2),
                        q_section=RealSubspace(2, list(eye2))),
        # q = 0: every orbit has codimension 2n - 1
        PolarActionSpec(n=4, family="II", b_flag="zero", q_section=RealSubspace(3, list(eye3))),
        # a complex section claim fails the bracket condition
        PolarActionSpec(n=3, family="II", b_flag="full", q_section=RealSubspace.full(2)),
        PolarActionSpec(n=4, family="I", k=1, q_basis=kahler.skew_hermitian_basis(3),
                        q_section=RealSubspace(3, list(eye3))),
    ]


# angles well apart: compare cannot tell q = normalizer(w) from its Haar
# image when w has two angles within 1e-8 of each other below 0.1
CATALOG = ([entry.spec for entry in polar.enumerate_moduli(3, (0.4, 1.0))]
           + [entry.spec for entry in polar.enumerate_moduli(4, (0.4,))])
POOL = CATALOG + _false_claims()
FAMILY_II = [i for i, spec in enumerate(POOL) if spec.family == "II"]
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def invariants(spec, seed=0):
    report = check_spec(dataclasses.replace(spec, seed=seed))
    return report.verdict, report.dim_normal, report.cohomogeneity


def invertible(rng, k):
    """A random real k x k matrix with singular values in [0.3, 3]."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q1 * rng.uniform(0.3, 3.0, k)) @ q2


def orthogonal(rng, k):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def haar_copy(spec, seed, scale):
    """spec conjugated by a Haar unitary of the block q acts on, with its
    q_basis multiplied by scale."""
    m, spec = spec.q_section.ambient_complex_dim, with_q_basis(spec)
    A = kahler.haar_unitary(m, np.random.default_rng(seed))
    return PolarActionSpec(
        n=spec.n, family=spec.family, k=spec.k, b_flag=spec.b_flag,
        w=None if spec.w is None else RealSubspace(m, spec.w.basis @ A.T),
        q_basis=[scale * (A @ N @ A.conj().T) for N in spec.q_basis],
        q_section=RealSubspace(m, spec.q_section.basis @ A.T),
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAMILY_II), SEEDS)
def test_unitary_conjugation_keeps_the_invariants(index, seed):
    spec = POOL[index]
    assert invariants(haar_copy(spec, seed, 1.0)) == invariants(spec)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=len(POOL) - 1), SEEDS,
       st.floats(min_value=-6.0, max_value=6.0))
def test_rescaled_and_rebased_inputs_keep_the_invariants(index, seed, log_scale):
    spec = POOL[index]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale

    def rebased(rows):  # the same span, another spanning set at another scale
        return scale * np.tensordot(invertible(rng, len(rows)), rows, axes=1) if len(rows) else rows

    m, q = spec.q_section.ambient_complex_dim, with_q_basis(spec).q_basis
    moved = PolarActionSpec(
        n=spec.n, family=spec.family, k=spec.k, b_flag=spec.b_flag,
        w=None if spec.w is None else RealSubspace(m, rebased(spec.w.basis)),
        q_basis=list(rebased(q)),
        q_section=RealSubspace(m, rebased(spec.q_section.basis)),
    )
    assert invariants(moved) == invariants(spec)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=len(POOL) - 1), SEEDS)
def test_a_change_of_seed_keeps_the_invariants(index, seed):
    assert invariants(POOL[index], seed=seed) == invariants(POOL[index])


RESIDUALS = ("subalgebra_residual", "section_residual", "bracket_residual")


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=len(POOL) - 1), SEEDS)
def test_flat_residuals_do_not_depend_on_the_bases_of_h_and_sigma(index, seed):
    rng = np.random.default_rng(seed)
    n, h, sigma = build_action(POOL[index])

    def turned(mats):  # the matrices moved by a random orthogonal matrix
        return np.tensordot(orthogonal(rng, len(mats)), mats, axes=1)

    base = check_polarity(n, h, sigma).to_json()
    moved = check_polarity(n, turned(h), turned(sigma)).to_json()
    for key in RESIDUALS:
        # 1e-12 relative, above a rounding floor four decades below the bounds
        assert math.isclose(moved[key], base[key], rel_tol=1e-12, abs_tol=1e-13), (key, base, moved)


# -- near-duplicate spanning vectors -------------------------------------------

ANGLE_W = kahler.canonical_subspace(3, [(0.7, 2)])
NEAR_DUPLICATE = {
    # u(2) on C^2 with the section R e_1: the named line spec of n = 3
    "line": PolarActionSpec(n=3, family="II", b_flag="zero", w=RealSubspace.zero(2), q_type="u",
                            q_section=RealSubspace(2, [np.eye(2)[0]])),
    "angle": PolarActionSpec(n=4, family="II", b_flag="full", w=ANGLE_W, q_type="normalizer",
                             q_section=polar.normalizer_section(ANGLE_W)),
}
REPORT_KEYS = ("verdict", "dim_normal", "dim_section", "dim_isotropy_orbit", "cohomogeneity")


def near_duplicate(subspace, entry):
    """A RealSubspace JSON with a copy of its first vector appended, 1e-9
    added to the copy's entry ``entry`` (of the re, im interleaved layout)."""
    out = copy.deepcopy(subspace)
    row = list(out["basis"][0])
    row[entry] += 1e-9
    out["basis"].append(row)
    return out


def command_output(tmp_path, capsys, command, payload):
    """The exit code and the JSON output of one CLI command on payload."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = cli.main([command, str(path)])
    return code, json.loads(capsys.readouterr().out)


def moduli(decomposition):
    return [(f["angle_rad"], len(f["subspace"]["basis"])) for f in decomposition["factors"]]


@pytest.mark.parametrize("name, key, entry", [
    ("line", "q_section", 2),   # e_1 + 1e-9 e_2
    ("angle", "w", 4),          # the first vector of w + 1e-9 e_3
    ("angle", "q_section", 5),  # e_3 + 1e-9 i e_3
])
def test_a_near_duplicate_spanning_vector_keeps_the_verdict(tmp_path, capsys, name, key, entry):
    spec = NEAR_DUPLICATE[name].to_json()
    moved = dict(spec, **{key: near_duplicate(spec[key], entry)})
    code, report = command_output(tmp_path, capsys, "verify", spec)
    moved_code, moved_report = command_output(tmp_path, capsys, "verify", moved)
    assert code == moved_code == 0 and report["verdict"]
    assert [moved_report[k] for k in REPORT_KEYS] == [report[k] for k in REPORT_KEYS]
    if key == "w":
        base, dup = (command_output(tmp_path, capsys, "decompose", data[key])
                     for data in (spec, moved))
        assert base[0] == dup[0] == 0
        assert kahler.same_moduli(moduli(dup[1]), moduli(base[1]))


# -- compare -----------------------------------------------------------------

SAME_N = [(i, j) for i, a in enumerate(CATALOG) for j, b in enumerate(CATALOG) if a.n == b.n]


def answer(spec1, spec2):
    return orbit_equivalence_invariants(spec1, spec2)[0]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SAME_N), SEEDS, st.floats(min_value=-6.0, max_value=6.0))
def test_compare_is_symmetric(pair, seed, log_scale):
    spec1, spec2 = CATALOG[pair[0]], haar_copy(CATALOG[pair[1]], seed, 10.0 ** log_scale)
    assert answer(spec1, spec2) == answer(spec2, spec1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=len(CATALOG) - 1), SEEDS,
       st.floats(min_value=-6.0, max_value=6.0))
def test_compare_never_says_no_to_a_haar_conjugated_rescaled_copy(index, seed, log_scale):
    spec = CATALOG[index]
    # 'undetermined' is allowed: family I has no witness, so a Haar-moved q
    # is compared with its tangents uncarried
    assert answer(spec, haar_copy(spec, seed, 10.0 ** log_scale)) in ("yes", "undetermined")
