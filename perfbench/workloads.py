"""Seeded inputs and output oracles for the chpolar benchmark.

``make_ops(workload, seed, workdir)`` writes the input files of one
workload into ``workdir`` and returns its fixed op list.  Each op is a dict
with an ``id``, the CLI ``argv`` (file names relative to ``workdir``), the
complex dimension ``n`` it works at, and an ``expect`` dict that ``check``
compares the op's exit code and JSON output against.

The seed moves the inputs (the Haar unitary that conjugates family II
specs, the spec ``seed`` fields, the catalog angle grids) but never the
expected answers: those come from the paper (arXiv 1208.2823), not from a
run of the program.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

from chpolar import kahler, polar
from chpolar.kahler import RealSubspace

WORKLOADS = ("cli-catalog", "verify-large")
LARGE_NS = (8, 12, 16)
SMALL_ANGLES = (math.pi / 6, math.pi / 4)
ANGLE_TOL = 1e-6          # Kahler angles read back from `decompose`
CURVATURE_TOL = 1e-8      # numeric mean curvature against the closed form


# -- expected values from the paper ------------------------------------------


def expected_dim_normal(spec):
    """dim of the normal space at the base point: 2n minus the orbit dim.

    Family I has the totally geodesic RH^k through o; family II has the
    orbit tangent b + w + g_2a (only the p-parts count, which are
    injective on these pieces).
    """
    if spec.family == "I":
        return 2 * spec.n - spec.k
    return 2 * spec.n - 1 - spec.w.dim - (1 if spec.b_flag == "full" else 0)


def expected_cohomogeneity(spec):
    """dim of the section: the iB line (family I, k >= 1) or the B line
    (family II, b = 0), plus the q-section."""
    if spec.family == "I":
        return (1 if spec.k >= 1 else 0) + spec.q_section.dim
    return (1 if spec.b_flag == "zero" else 0) + spec.q_section.dim


def expected_catalog_counts(n, n_angles):
    """(family I, family II) class counts, counted from the moduli alone.

    Family I: one class per k with q trivial (m = n - k = 0), else u(m),
    plus the maximal torus when m >= 2.  Family II: the b-flag times the
    admissible moduli of w in C^m, m = n - 1: s pairs spread over the
    interior angles, c complex dimensions and r totally real ones with
    2 s + c + r <= m; the transitive pair (b = a, w = C^m) is dropped.
    """
    fam1 = sum(1 if m == 0 else 1 + (m >= 2) for m in range(n + 1))
    m = n - 1
    moduli = 0
    for s in range(m // 2 + 1):
        spreads = math.comb(s + n_angles - 1, s) if n_angles else int(s == 0)
        rest = m - 2 * s
        moduli += spreads * (rest + 1) * (rest + 2) // 2
    return fam1, 2 * moduli - 1


# -- spec construction -----------------------------------------------------


def _conjugated(spec, A):
    """Family II spec moved by the unitary A: w -> A w, q -> A q A*,
    section -> A s.  Verdict, dim_normal and cohomogeneity are invariant."""
    m = spec.w.ambient_complex_dim
    return polar.PolarActionSpec(
        n=spec.n, family="II", b_flag=spec.b_flag,
        w=RealSubspace(m, [A @ b for b in spec.w.basis]),
        q_basis=[A @ N @ A.conj().T for N in spec.q_basis],
        q_section=RealSubspace(m, [A @ b for b in spec.q_section.basis]),
        seed=spec.seed,
    )


def _line_spec(n, seed):
    """Family II, b = 0, w = 0, q = u(n-1), section R e_1 + (B line)."""
    m = n - 1
    return polar.PolarActionSpec(
        n=n, family="II", b_flag="zero", w=RealSubspace.zero(m),
        q_basis=kahler.skew_hermitian_basis(m),
        q_section=RealSubspace(m, [np.eye(m, dtype=complex)[0]]), seed=seed,
    )


def _angle_spec(n, angle, b_flag, seed):
    """Family II with w of constant interior Kahler angle (real dim 2) and
    q its full normalizer, section the canonical normalizer section."""
    m = n - 1
    w = kahler.canonical_subspace(m, [(angle, 2)])
    return polar.PolarActionSpec(
        n=n, family="II", b_flag=b_flag, w=w,
        q_basis=kahler.normalizer_algebra(w),
        q_section=polar.normalizer_section(w), seed=seed,
    )


def _torus_spec(n, seed):
    """Family I, k = n/2, q the maximal torus of u(n-k), section R^{n-k}."""
    k = n // 2
    m = n - k
    eye = np.eye(m, dtype=complex)
    return polar.PolarActionSpec(
        n=n, family="I", k=k, q_basis=[1j * np.outer(e, e) for e in eye],
        q_section=RealSubspace(m, list(eye)), seed=seed,
    )


def _verify_expect(spec, polar_expected=True, check_cohomogeneity=True):
    return {
        "kind": "verify",
        "exit": 0 if polar_expected else 1,
        "verdict": polar_expected,
        "dim_normal": expected_dim_normal(spec),
        "cohomogeneity": expected_cohomogeneity(spec) if check_cohomogeneity else None,
    }


def _write(workdir, name, payload):
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(payload, fh)
    return name


def _seed_int(rng):
    return int(rng.integers(1, 2**31 - 1))


def _cli_small(rng, write):
    ops = []
    n = 3
    # every class of the n = 3 catalog verifies as polar
    catalog = polar.enumerate_moduli(n, SMALL_ANGLES)
    for i, entry in enumerate(catalog):
        spec = entry.spec
        spec.seed = _seed_int(rng)
        name = write(f"class{i:02d}.json", spec.to_json())
        ops.append({"id": f"verify-class{i:02d}", "argv": ["verify", name], "n": n,
                    "expect": _verify_expect(spec)})

    # a wrong section claim: u(2) on C^2 has the one-line section, not R^2
    A = kahler.haar_unitary(n - 1, rng)
    bad = _line_spec(n, _seed_int(rng))
    bad.q_section = RealSubspace(n - 1, list(np.eye(n - 1, dtype=complex)))
    bad = _conjugated(bad, A)
    name = write("wrong-section.json", bad.to_json())
    ops.append({"id": "verify-wrong-section", "argv": ["verify", name], "n": n,
                "expect": _verify_expect(bad, polar_expected=False,
                                         check_cohomogeneity=False)})

    # compare: unitary conjugate -> yes; other b-flag -> no
    base = _angle_spec(n, SMALL_ANGLES[0], "full", _seed_int(rng))
    conj = _conjugated(base, kahler.haar_unitary(n - 1, rng))
    other = _angle_spec(n, SMALL_ANGLES[0], "zero", _seed_int(rng))
    a = write("cmp-base.json", base.to_json())
    b = write("cmp-conj.json", conj.to_json())
    c = write("cmp-other-b.json", other.to_json())
    ops.append({"id": "compare-conjugate", "argv": ["compare", a, b], "n": n,
                "expect": {"kind": "compare", "exit": 0, "equivalent": "yes"}})
    ops.append({"id": "compare-other-b", "argv": ["compare", a, c], "n": n,
                "expect": {"kind": "compare", "exit": 1, "equivalent": "no"}})

    # decompose: a Haar-moved subspace with one interior and one real factor
    moduli = [(SMALL_ANGLES[1], 2), (math.pi / 2, 1)]
    V = kahler.canonical_subspace(n, moduli)
    A = kahler.haar_unitary(n, rng)
    V = RealSubspace(n, [A @ v for v in V.basis])
    name = write("subspace.json", V.to_json())
    ops.append({"id": "decompose", "argv": ["decompose", name], "n": n,
                "expect": {"kind": "decompose", "exit": 0, "moduli": moduli}})

    # curvature of the orbit w + g_2a: (1/2)(2 + dim w) B
    curv = _conjugated(other, kahler.haar_unitary(n - 1, rng))
    name = write("curvature.json", curv.to_json())
    ops.append({"id": "curvature", "argv": ["curvature", name], "n": n,
                "expect": {"kind": "curvature", "exit": 0,
                           "a_part": 0.5 * (2 + curv.w.dim)}})

    ops.append({"id": "selfcheck-n3",
                "argv": ["selfcheck", "--n", "3", "--seed", str(_seed_int(rng))], "n": n,
                "expect": {"kind": "selfcheck", "exit": 0}})
    ops.append({"id": "enumerate-n2", "argv": ["enumerate", "--n", "2"], "n": 2,
                "expect": {"kind": "enumerate", "exit": 0, "n": 2, "n_angles": 0}})
    return ops


def _verify_large(rng, write):
    ops = []
    for n in LARGE_NS:
        A = kahler.haar_unitary(n - 1, rng)
        specs = [("II-line", _conjugated(_line_spec(n, _seed_int(rng)), A))]
        if n < max(LARGE_NS):  # keeps one pass within the run time
            specs.append(("II-angle", _conjugated(
                _angle_spec(n, math.pi / 5, "full", _seed_int(rng)), A)))
        specs.append(("I-torus", _torus_spec(n, _seed_int(rng))))
        for label, spec in specs:
            name = write(f"{label}-n{n}.json", spec.to_json())
            ops.append({"id": f"verify-{label}-n{n}", "argv": ["verify", name], "n": n,
                        "expect": _verify_expect(spec)})
        if n == 12:
            # q = 0 with w = 0: the trivial q-action on C^{n-1} has no totally
            # real section, so no claim can pass; this one claims R^{n-1}
            m = n - 1
            spec = _conjugated(polar.PolarActionSpec(
                n=n, family="II", b_flag="zero", w=RealSubspace.zero(m),
                q_section=RealSubspace(m, list(np.eye(m, dtype=complex))),
                seed=_seed_int(rng)), A)
            name = write(f"non-polar-n{n}.json", spec.to_json())
            # the reported cohomogeneity of a false verdict is dim(section), not
            # the true cohomogeneity, so only verdict and dim_normal are checked
            ops.append({"id": f"verify-non-polar-n{n}", "argv": ["verify", name], "n": n,
                        "expect": _verify_expect(spec, polar_expected=False,
                                                 check_cohomogeneity=False)})
    return ops


def _angle_grid(rng, count):
    """count interior angles, at least 0.1 rad apart and from 0 and pi/2."""
    while True:
        grid = np.sort(rng.uniform(0.1, math.pi / 2 - 0.1, count))
        if count < 2 or np.diff(grid).min() >= 0.1:
            return [float(a) for a in grid]


def _catalog(rng, write):
    ops = []
    for n, count in ((6, 2), (4, 3)):
        grid = _angle_grid(rng, count)
        ops.append({
            "id": f"enumerate-n{n}-{count}angles",
            "argv": ["enumerate", "--n", str(n), "--angles", ",".join(repr(a) for a in grid),
                     "--seed", str(_seed_int(rng))],
            "n": n,
            "expect": {"kind": "enumerate", "exit": 0, "n": n, "n_angles": count},
        })
    return ops


def _cli_catalog(rng, write):
    """The small CLI ops, then the catalog enumerates."""
    return _cli_small(rng, write) + _catalog(rng, write)


_GENERATORS = {"cli-catalog": _cli_catalog, "verify-large": _verify_large}


def make_ops(workload, seed, workdir):
    """Write the inputs of ``workload`` for ``seed`` into ``workdir`` and
    return its op list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](rng, functools.partial(_write, workdir))


# -- oracles ----------------------------------------------------------------


def check(expect, exit_code, stdout):
    """None when the op's exit code and output match ``expect``, else a
    one-line description of the first mismatch."""
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    try:
        return _CHECKS[expect["kind"]](expect, out)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed {expect['kind']} output: {exc!r}"


def _check_verify(expect, out):
    for key in ("verdict", "dim_normal", "cohomogeneity"):
        if expect[key] is not None and out[key] != expect[key]:
            return f"{key} {out[key]!r}, expected {expect[key]!r}"
    return None


def _check_compare(expect, out):
    if out["equivalent"] != expect["equivalent"]:
        return f"equivalent {out['equivalent']!r}, expected {expect['equivalent']!r}"
    return None


def _check_decompose(expect, out):
    got = [(f["angle_rad"], len(f["subspace"]["basis"])) for f in out["factors"]]
    want = sorted(expect["moduli"])
    if len(got) != len(want) or any(
        abs(ga - wa) > ANGLE_TOL or gd != wd for (ga, gd), (wa, wd) in zip(got, want)
    ):
        return f"moduli {got!r}, expected {want!r}"
    return None


def _check_curvature(expect, out):
    H = out["mean_curvature"]
    dev = max(abs(H["a_part"] - expect["a_part"]), abs(H["z_part"]),
              max((math.hypot(*z) for z in H["u_part"]), default=0.0))
    if dev > CURVATURE_TOL:
        return f"mean curvature off the closed form by {dev:.3g} (tol {CURVATURE_TOL:g})"
    return None


def _check_selfcheck(expect, out):
    if out["ok"] is not True:
        return f"selfcheck not ok: {out['max_residuals']!r}"
    return None


def _check_enumerate(expect, out):
    fam1, fam2 = expected_catalog_counts(expect["n"], expect["n_angles"])
    labels = [c["label"] for c in out["classes"]]
    got1 = sum(label.startswith("I:") for label in labels)
    got2 = sum(label.startswith("II:") for label in labels)
    if out["count"] != fam1 + fam2 or len(labels) != out["count"]:
        return f"count {out['count']} ({len(labels)} classes), expected {fam1 + fam2}"
    if (got1, got2) != (fam1, fam2):
        return f"family counts {(got1, got2)}, expected {(fam1, fam2)}"
    if len(set(labels)) != len(labels):
        return "duplicate class labels"
    return None


_CHECKS = {
    "verify": _check_verify,
    "compare": _check_compare,
    "decompose": _check_decompose,
    "curvature": _check_curvature,
    "selfcheck": _check_selfcheck,
    "enumerate": _check_enumerate,
}
