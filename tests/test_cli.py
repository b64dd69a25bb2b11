import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chpolar
from chpolar import angeom, cli, kahler, polar, su1n
from chpolar.cli import main, render_json
from chpolar.polar import PolarActionSpec, normalizer_section
from oracles import build_action


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def spec_pi3(n=3, b_flag="full"):
    w = kahler.canonical_subspace(n - 1, [(math.pi / 3, 2)])
    return PolarActionSpec(
        n=n, family="II", b_flag=b_flag, w=w,
        q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
    )


# --- decompose -------------------------------------------------------------------


def test_cmd_decompose_totally_real(tmp_path, capsys):
    payload = {"ambient_complex_dim": 2, "basis": [[1, 0, 0, 0], [0, 0, 1, 0]]}
    rc = main(["decompose", write_json(tmp_path, "v.json", payload)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["factors"]) == 1
    assert out["factors"][0]["angle_rad"] == pytest.approx(math.pi / 2)


def test_cmd_decompose_half_angle_construction(tmp_path, capsys):
    V = kahler.make_constant_angle(1, math.pi / 3, 2)
    rc = main(["decompose", write_json(tmp_path, "v.json", V.to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["factors"][0]["angle_rad"] == pytest.approx(math.pi / 3, abs=1e-9)


def test_cmd_decompose_mixed(tmp_path, capsys):
    payload = {
        "ambient_complex_dim": 2,
        "basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    }
    rc = main(["decompose", write_json(tmp_path, "v.json", payload)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    got = [(f["angle_rad"], len(f["subspace"]["basis"])) for f in out["factors"]]
    assert got[0] == (0.0, 2)
    assert got[1][0] == pytest.approx(math.pi / 2) and got[1][1] == 1


def test_cmd_decompose_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["decompose", str(path)]) == 2
    path2 = write_json(tmp_path, "bad2.json", {"missing": "fields"})
    assert main(["decompose", path2]) == 2


# --- verify ----------------------------------------------------------------------


def test_cmd_verify_constructed_spec_exit_0(tmp_path, capsys):
    rc = main(["verify", write_json(tmp_path, "s.json", spec_pi3().to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["verdict"] is True


def test_cmd_verify_crafted_negative_exit_1_with_bracket_residual(tmp_path, capsys):
    # q = 0, b = a, w = 0, claimed section all of g_a (so Sigma = p_a): the
    # bracket condition fails with a residual bounded away from zero
    n = 3
    spec = PolarActionSpec(
        n=n, family="II", b_flag="full",
        w=kahler.RealSubspace.zero(n - 1), q_basis=[],
        q_section=kahler.RealSubspace.full(n - 1),
    )
    rc = main(["verify", write_json(tmp_path, "s.json", spec.to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["verdict"] is False
    assert out["bracket_residual"] >= 0.1


def test_cmd_verify_negative_spec_exit_1(tmp_path, capsys):
    # family II shape with a claimed section that is not one: w = 0, q = 0,
    # b = a, section = one line; isotropy cannot sweep the normal space.
    n = 3
    spec = PolarActionSpec(
        n=n, family="II", b_flag="full",
        w=kahler.RealSubspace.zero(n - 1), q_basis=[],
        q_section=kahler.RealSubspace(n - 1, [np.eye(n - 1, dtype=complex)[0]]),
    )
    rc = main(["verify", write_json(tmp_path, "s.json", spec.to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["verdict"] is False
    assert out["slice_condition"] is False


def test_cmd_verify_malformed_exit_2(tmp_path, capsys):
    assert main(["verify", write_json(tmp_path, "s.json", {"family": "II"})]) == 2


def test_cmd_verify_precondition_violation_exit_2(tmp_path, capsys):
    n = 3
    w = kahler.RealSubspace(n - 1, [np.array([1.0 + 0j, 0.0])])
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 1], bad[1, 0] = 1.0, -1.0
    spec = PolarActionSpec(n=n, family="II", b_flag="full", w=w, q_basis=[bad])
    assert main(["verify", write_json(tmp_path, "s.json", spec.to_json())]) == 2


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
def test_cmd_verify_non_subalgebra_exit_2_at_every_scale(tmp_path, capsys, scale):
    E = np.zeros((2, 2), dtype=complex)
    E[0, 1], E[1, 0] = 1.0, -1.0
    F = np.zeros((2, 2), dtype=complex)
    F[0, 1], F[1, 0] = 1j, 1j
    spec = PolarActionSpec(n=3, family="II", b_flag="full", q_basis=[scale * E, scale * F])
    assert main(["verify", write_json(tmp_path, "s.json", spec.to_json())]) == 2
    assert "not closed" in capsys.readouterr().err


def leak_spec(b_flag, leak):
    """q = R(diag(0, i) + leak (E_12 - E_21)) against w = R e_1: a closed q
    whose bracket with w leaves w by about leak."""
    N = np.array([[0, leak], [-leak, 1j]], dtype=complex)
    return PolarActionSpec(
        n=3, family="II", b_flag=b_flag,
        w=kahler.RealSubspace(2, [np.array([1, 0j])]), q_basis=[N],
        q_section=kahler.RealSubspace(2, [np.array([1j, 0]), np.array([0, 1 + 0j])]),
    )


@pytest.mark.parametrize("b_flag", ["full", "zero"])
def test_cmd_verify_leak_below_the_input_bound_is_measured_not_an_error(tmp_path, capsys, b_flag):
    # the builders' checks and is_subalgebra bound one figure, the closure
    # residual of h: a [q, w] leak below 1e-8 is reported, not an error
    rc = main(["verify", write_json(tmp_path, "s.json", leak_spec(b_flag, 3e-9).to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["verdict"] is True
    assert 1e-9 < out["subalgebra_residual"] < 1e-8
    rc = main(["verify", write_json(tmp_path, "s.json", leak_spec(b_flag, 2e-8).to_json())])
    assert rc == 2 and "q does not normalize w" in capsys.readouterr().err


@pytest.mark.parametrize("b_flag", ["full", "zero"])
def test_check_spec_matches_the_flat_path_on_the_leak_specs(b_flag):
    spec = leak_spec(b_flag, 3e-9)
    got = polar.check_spec(spec).to_json()
    want = polar.check_polarity(*build_action(spec)).to_json()
    assert [got[k] for k in ("verdict", "dim_normal", "cohomogeneity")] == \
        [want[k] for k in ("verdict", "dim_normal", "cohomogeneity")]
    # sqrt(2) |(1 - pi_w) N b| over the two orders of the pair (N, b), with
    # |N| = 1 in the metric of su(1, 3): 2 |N|_F^2 - 2 (Im tr N)^2 / 4 = 3/2
    leak = math.sqrt(2.0) * 3e-9 / math.sqrt(1.5)
    for report in (got, want):
        assert report["subalgebra_residual"] == pytest.approx(leak, rel=1e-6)
    assert abs(got["subalgebra_residual"] - want["subalgebra_residual"]) <= 1e-12


def test_cmd_verify_brackets_no_su1n_element(tmp_path, monkeypatch):
    # verify evaluates the criterion in T_o CH^n = C^n: it builds no root
    # decomposition and brackets no su(1, n) matrix, for either family
    def forbidden(*args, **kwargs):
        raise AssertionError("verify reached the su(1, n) model")

    for name in ("build_root_decomposition", "bracket"):
        original = getattr(su1n, name)
        for module in (su1n, polar, kahler, angeom, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, forbidden)
    line = lambda m: kahler.RealSubspace(m, [np.eye(m, dtype=complex)[0]])
    specs = {
        "II": spec_pi3(n=4),
        "I, k = 2": PolarActionSpec(n=4, family="I", k=2,
                                    q_basis=kahler.skew_hermitian_basis(2), q_section=line(2)),
        "I, k = 0": PolarActionSpec(n=4, family="I", k=0,
                                    q_basis=kahler.skew_hermitian_basis(4), q_section=line(4)),
    }
    for label, spec in specs.items():
        assert main(["verify", write_json(tmp_path, "s.json", spec.to_json())]) == 0, label


@pytest.mark.parametrize("q_basis", [
    [[[[0, 1], [0, 0]], [[0, 0]]]],                               # ragged
    [[[[0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0]]]],           # triples, not pairs
    [[[[0, 1], [0, 0]], [[0, 0], ["a", 1]]]],                     # not a number
], ids=["ragged", "wrong-shape", "non-numeric"])
def test_cmd_verify_malformed_q_basis_exit_2(tmp_path, capsys, q_basis):
    payload = PolarActionSpec(n=2, family="I", k=0).to_json()
    payload["q_basis"] = q_basis
    assert main(["verify", write_json(tmp_path, "s.json", payload)]) == 2
    assert "q_basis" in capsys.readouterr().err


@pytest.mark.parametrize("spec_seed, drawn", [(7, 7), (None, 0)], ids=["seed-7", "no-seed"])
def test_cmd_verify_draws_with_the_spec_seed(tmp_path, monkeypatch, spec_seed, drawn):
    payload = spec_pi3().to_json()
    if spec_seed is None:
        del payload["seed"]
    else:
        payload["seed"] = spec_seed
    seen = []
    real = polar._report

    def spy(residuals, sig, nu, act, seed):  # the sampler's seed
        seen.append(seed)
        return real(residuals, sig, nu, act, seed)

    monkeypatch.setattr(polar, "_report", spy)
    assert main(["verify", write_json(tmp_path, "s.json", payload)]) == 0
    assert seen == [drawn]


def _line_spec(n=2):
    """A valid family I spec as JSON, for the input readers to break."""
    return PolarActionSpec(n=n, family="I", k=0, q_basis=kahler.skew_hermitian_basis(n),
                           q_section=kahler.RealSubspace(n, [np.eye(n)[0]])).to_json()


def _with(payload, path, value):
    """payload with payload[path[0]][path[1]]... set to value."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


@pytest.mark.parametrize("command, payload, message", [
    ("decompose", {"ambient_complex_dim": 1, "basis": [[math.nan, 0.0]]}, "finite"),
    ("decompose", {"ambient_complex_dim": 1, "basis": [[math.inf, 0.0]]}, "finite"),
    ("decompose", {"ambient_complex_dim": 2.5, "basis": []}, "ambient_complex_dim must be"),
    ("verify", _with(_line_spec(), ("q_section", "basis", 0, 1), math.nan), "finite"),
    ("verify", _with(_line_spec(), ("q_section", "basis", 0, 0), -math.inf), "finite"),
    ("verify", _with(_line_spec(), ("q_section", "ambient_complex_dim"), 2.5),
     "ambient_complex_dim must be"),
    ("verify", _with(_line_spec(), ("n",), 2.7), "n must be"),
    ("verify", _with(_line_spec(), ("k",), True), "k must be"),
    ("verify", _with(_line_spec(), ("seed",), 1.5), "seed must be"),
], ids=["nan-row", "inf-row", "half-dim", "nan-section", "inf-section", "half-section-dim",
        "n-2.7", "k-true", "seed-1.5"])
def test_numbers_that_json_cannot_mean_exit_2(tmp_path, capsys, command, payload, message):
    assert main([command, write_json(tmp_path, "in.json", payload)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "SPEC"], "seed must be a non-negative integer, got -1"),
    (["selfcheck", "--n", "3", "--seed", "-1"], "--seed must be a non-negative integer, got -1"),
], ids=["verify", "selfcheck"])
def test_a_negative_seed_exits_2_naming_it_before_any_work(tmp_path, capsys, monkeypatch,
                                                           argv, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("a negative seed reached the computation")

    monkeypatch.setattr(polar, "_checked_inputs", forbidden)
    monkeypatch.setattr(su1n, "build_root_decomposition", forbidden)
    spec = write_json(tmp_path, "s.json", _with(_line_spec(), ("seed",), -1))
    assert main([spec if arg == "SPEC" else arg for arg in argv]) == 2
    assert message in capsys.readouterr().err


def test_whole_floats_still_read_as_integers(tmp_path, capsys):
    payload = _with(_line_spec(), ("n",), 2.0)
    assert main(["verify", write_json(tmp_path, "s.json", payload)]) == 0


def _catalog_spec(label):
    """The JSON spec of the first n = 3 catalog class whose label starts with
    label, with its q spelled out as q_basis."""
    return next(e.spec.with_q_basis().to_json() for e in polar.enumerate_moduli(3)
                if e.label.startswith(label))


@pytest.mark.parametrize("family", ["banana", 2, None, "i"])
def test_a_family_other_than_I_or_II_exits_2(tmp_path, capsys, family):
    payload = _with(_catalog_spec("II:b=full,w=[]"), ("family",), family)
    assert main(["verify", write_json(tmp_path, "s.json", payload)]) == 2
    assert "family must be 'I' or 'II'" in capsys.readouterr().err


# each bool stands where the spec already holds the number it would read as
@pytest.mark.parametrize("command, label, path, value, message", [
    ("verify", "I:k=2", ("q_basis",), [[[[False, True]]]], "q_basis must be"),
    ("verify", "II:b=zero,w=[]", ("q_basis", 0, 0, 0, 1), True, "q_basis must be"),
    ("verify", "II:b=full,w=[(1.570796, 1)]", ("w", "basis", 0, 0), True, "w: basis must be"),
    ("verify", "II:b=zero,w=[]", ("q_section", "basis", 0), [True, False, False, False],
     "q_section: basis must be"),
    ("decompose", None, ("basis", 0), [True, False, 0, 0], "basis must be"),
], ids=["all-bool-q_basis", "mixed-q_basis", "w", "q_section", "decompose"])
def test_json_booleans_in_number_arrays_exit_2(tmp_path, capsys, command, label, path,
                                                value, message):
    line = {"ambient_complex_dim": 2, "basis": [[1, 0, 0, 0]]}
    payload = _catalog_spec(label) if label else line
    assert main([command, write_json(tmp_path, "in.json", payload)]) == 0
    capsys.readouterr()
    bad = write_json(tmp_path, "bad.json", _with(payload, path, value))
    assert main([command, bad]) == 2
    err = capsys.readouterr().err
    assert message in err and "all finite numbers, got " in err


# --- every command that reads a spec runs verify's input check -----------------------


def _invalid_spec(name):
    n = 3
    line = kahler.RealSubspace(n - 1, [[1.0, 0.0]])
    if name == "hermitian-q":
        return PolarActionSpec(n=n, family="II", b_flag="full", q_basis=[np.diag([1.0, 0.0])])
    if name == "q-leaves-w":  # u(2) does not normalize the real line w
        return PolarActionSpec(n=n, family="II", b_flag="full", w=line,
                               q_basis=kahler.skew_hermitian_basis(n - 1))
    return PolarActionSpec(n=n, family="II", b_flag="full",  # m = 2, section in C^3
                           q_section=kahler.RealSubspace(n, [np.eye(n)[0]]))


@pytest.mark.parametrize("command", ["verify", "compare", "curvature"])
@pytest.mark.parametrize("name", ["hermitian-q", "q-leaves-w", "section-in-C3"])
def test_every_spec_command_rejects_what_verify_rejects(tmp_path, capsys, command, name):
    bad = write_json(tmp_path, "bad.json", _invalid_spec(name).to_json())
    assert main(["verify", bad]) == 2
    message = capsys.readouterr().err
    assert message.startswith("chpolar: input error: ")
    good = write_json(tmp_path, "good.json", spec_pi3().to_json())
    argv = ["compare", good, bad] if command == "compare" else [command, bad]
    assert main(argv) == 2
    assert capsys.readouterr().err == message


# --- a key the spec does not read is an input error -------------------------------


def _spec_with_unknown_keys(name):
    """A catalog spec as JSON with keys it does not read, and the message
    that names them."""
    if name == "misspelled-section":
        spec = _catalog_spec("II:b=zero,w=[]")
        spec["q_sectoin"] = spec.pop("q_section")
        return spec, "a family II spec has unknown key(s) q_sectoin"
    if name == "family-I-with-b-and-w":
        spec = _catalog_spec("I:k=2")
        spec.update(b="zero", w={"ambient_complex_dim": 1, "basis": []})
        return spec, "a family I spec has unknown key(s) b, w"
    spec = _catalog_spec("II:b=full,w=[(1.570796, 1)]")
    spec["w"]["bsis"] = spec["w"].pop("basis")
    return spec, "w: a RealSubspace has unknown key(s) bsis"


@pytest.mark.parametrize("command", ["verify", "compare", "curvature"])
@pytest.mark.parametrize("name", ["misspelled-section", "family-I-with-b-and-w", "misspelled-w-key"])
def test_a_key_the_spec_does_not_read_exits_2(tmp_path, capsys, command, name):
    spec, message = _spec_with_unknown_keys(name)
    bad = write_json(tmp_path, "bad.json", spec)
    good = write_json(tmp_path, "good.json", spec_pi3().to_json())
    argv = ["compare", good, bad] if command == "compare" else [command, bad]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"chpolar: input error: {message}; it reads ")


def test_cmd_decompose_unknown_key_exits_2(tmp_path, capsys):
    line = {"ambient_complex_dim": 2, "basis": [[1, 0, 0, 0]]}
    assert main(["decompose", write_json(tmp_path, "line.json", line)]) == 0
    capsys.readouterr()
    payload = {**line, "angle": 0.5}
    assert main(["decompose", write_json(tmp_path, "bad.json", payload)]) == 2
    assert capsys.readouterr().err == ("chpolar: input error: a RealSubspace has unknown key(s) "
                                       "angle; it reads ambient_complex_dim, basis\n")


@pytest.mark.parametrize("payload", ["abc", [1, 2], 3])
def test_cmd_decompose_reads_only_a_json_object(tmp_path, capsys, payload):
    assert main(["decompose", write_json(tmp_path, "in.json", payload)]) == 2
    assert capsys.readouterr().err.startswith(
        "chpolar: input error: a RealSubspace must be a JSON object, got ")


# --- compare ---------------------------------------------------------------------


def test_cmd_compare_identical_specs(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", spec_pi3().to_json())
    b = write_json(tmp_path, "b.json", spec_pi3().to_json())
    rc = main(["compare", a, b])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["equivalent"] == "yes"


def test_cmd_compare_b_flag_mismatch(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", spec_pi3(b_flag="full").to_json())
    b = write_json(tmp_path, "b.json", spec_pi3(b_flag="zero").to_json())
    rc = main(["compare", a, b])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and out["equivalent"] == "no"


def as_lists(obj):
    """obj with every tuple turned into a list."""
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    return obj


def test_cmd_compare_prints_tuples_as_lists(tmp_path, capsys):
    a = write_json(tmp_path, "a.json", spec_pi3().to_json())
    answer, report = polar.orbit_equivalence_invariants(spec_pi3(), spec_pi3())
    for key in ("family", "principal_orbit_dims", "w_moduli"):
        assert isinstance(report[key], tuple)
    payload = as_lists({"equivalent": answer, "report": report})
    assert main(["compare", a, a]) == 0
    assert capsys.readouterr().out == render_json(payload) + "\n"


# --- enumerate --------------------------------------------------------------------


def test_cmd_enumerate_n2_nine_classes(capsys):
    rc = main(["enumerate", "--n", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["count"] == 9


def test_cmd_enumerate_accepts_angle_grid(capsys):
    rc = main(["enumerate", "--n", "3", "--angles", f"{math.pi/6},{math.pi/4}"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["count"] > 0


# The classes are fixed.  The bytes (basis rows of w and q_section, and each
# spec's named q) may move only with a deliberate change that updates
# ENUMERATE_SHA256 and says in CHANGES.md what moved.
ENUMERATE_LABELS = {
    "n2": [
        "I:k=2,q=0", "I:k=1,q=u(1)", "I:k=0,q=u(2)", "I:k=0,q=t(2)",
        "II:b=full,w=[]", "II:b=zero,w=[]", "II:b=full,w=[(1.570796, 1)]",
        "II:b=zero,w=[(1.570796, 1)]", "II:b=zero,w=[(0.0, 2)]",
    ],
    "n3": [
        "I:k=3,q=0", "I:k=2,q=u(1)", "I:k=1,q=u(2)", "I:k=1,q=t(2)", "I:k=0,q=u(3)",
        "I:k=0,q=t(3)", "II:b=full,w=[]", "II:b=zero,w=[]", "II:b=full,w=[(1.570796, 1)]",
        "II:b=zero,w=[(1.570796, 1)]", "II:b=full,w=[(1.570796, 2)]",
        "II:b=zero,w=[(1.570796, 2)]", "II:b=full,w=[(0.0, 2)]", "II:b=zero,w=[(0.0, 2)]",
        "II:b=full,w=[(0.0, 2), (1.570796, 1)]", "II:b=zero,w=[(0.0, 2), (1.570796, 1)]",
        "II:b=zero,w=[(0.0, 4)]", "II:b=full,w=[(0.785398, 2)]",
        "II:b=zero,w=[(0.785398, 2)]", "II:b=full,w=[(0.523599, 2)]",
        "II:b=zero,w=[(0.523599, 2)]",
    ],
}
ENUMERATE_SHA256 = {
    "n2": "f090f5f2a6b314ff684ba02317e510442fa70e7e6c8595afb4aa01d029c07f1e",
    "n3": "cef7964a43d6c9650294498eca4105ce1474fe07c4d5dd77a471668ff04f627c",
}


@pytest.mark.parametrize("key, argv", [
    ("n2", ["enumerate", "--n", "2"]),
    ("n3", ["enumerate", "--n", "3", "--angles", f"{math.pi/6},{math.pi/4}"]),
])
def test_cmd_enumerate_output_is_pinned(capsys, key, argv):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert [c["label"] for c in json.loads(text)["classes"]] == ENUMERATE_LABELS[key]
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_SHA256[key]


def test_cmd_enumerate_echoes_the_grid_it_used(capsys):
    # the catalog takes each angle once, in increasing order
    outs = []
    for angles in ("0.3,0.3", "0.3", "0.7,0.3,0.7", "0.3,0.7"):
        assert main(["enumerate", "--n", "3", "--angles", angles]) == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert outs[0]["angle_grid"] == outs[1]["angle_grid"] == [0.3]
    assert outs[2]["angle_grid"] == outs[3]["angle_grid"] == [0.3, 0.7]
    assert outs[0] == outs[1] and outs[2] == outs[3]


def test_cmd_enumerate_specs_name_their_q(capsys):
    assert main(["enumerate", "--n", "3"]) == 0
    specs = [c["spec"] for c in json.loads(capsys.readouterr().out)["classes"]]
    assert all("q_basis" not in spec for spec in specs)
    assert {spec["q"]["type"] for spec in specs} == {"u", "t", "normalizer"}


def test_cmd_enumerate_rejects_bad_angles(capsys):
    assert main(["enumerate", "--n", "3", "--angles", "2.0"]) == 2
    assert main(["enumerate", "--n", "3", "--angles", "abc"]) == 2
    capsys.readouterr()
    # a grid angle below GRID_MARGIN from 0: 1e-6 lies below
    # kahler.FRAME_FLOOR, so its classes could not be framed
    margin = f"{polar.GRID_MARGIN:g}"
    assert main(["enumerate", "--n", "4", "--angles", "1e-6,0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid angle 1e-06" in captured.err and margin in captured.err
    # two grid angles closer than GRID_MARGIN: the first two catalogs used
    # to fail in decompose or hold a class that verify rejects, the third
    # to merge near-equal angles into one class
    close = repr(0.7 + 0.99 * polar.GRID_MARGIN)
    for n, angles in (("6", "0.0015,0.001504"), ("7", "0.01,0.010003"), ("4", "0.5,0.50000001"),
                      ("4", "0.7," + close)):
        assert main(["enumerate", "--n", n, "--angles", angles]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"grid angle {angles.split(',')[1]}" in captured.err and margin in captured.err


@pytest.mark.parametrize("angle", ["nan", "inf", "-0.5"])
def test_cmd_enumerate_names_the_interval_of_an_out_of_range_angle(capsys, angle):
    # an angle outside (0, pi/2) is not within GRID_MARGIN of a neighbour:
    # the error names the open interval, not a neighbour
    assert main(["enumerate", "--n", "4", "--angles", "0.7," + angle]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"grid angle {float(angle)!r} lies outside the open interval (0, pi/2)" in captured.err
    assert "neighbour" not in captured.err


def test_cmd_enumerate_reads_an_angle_list_that_starts_with_a_minus(tmp_path):
    # argparse would read "-0.5,0.7" as a flag: the grid check names the interval
    proc = run_cli(["enumerate", "--n", "3", "--angles", "-0.5,0.7"], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "grid angle -0.5 lies outside the open interval (0, pi/2)" in proc.stderr


@pytest.mark.parametrize("flag", [["--angle", "0.5"], ["--ang", "0.5"], ["--angle", "-0.5,0.7"]])
def test_cmd_enumerate_takes_no_abbreviation_of_angles(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "3", *flag])
    assert exc.value.code == 2
    assert main(["enumerate", "--n", "3", "--angles", "-0.5,0.7"]) == 2
    assert "lies outside the open interval (0, pi/2)" in capsys.readouterr().err


def subprocess_env():
    """The environment of a child interpreter that imports this chpolar."""
    src = os.path.dirname(os.path.dirname(chpolar.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def run_cli(args, cwd):
    """The CLI in its own process, cut after 60 s so that a hang fails."""
    return subprocess.run([sys.executable, "-m", "chpolar.cli", *args], cwd=cwd,
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)


def test_cmd_compare_angles_within_tolerance(tmp_path):
    def spec(angle):
        w = kahler.canonical_subspace(2, [(angle, 2)])
        return PolarActionSpec(
            n=3, family="II", b_flag="full", w=w,
            q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
        ).to_json()

    a = write_json(tmp_path, "a.json", spec(0.5))
    b = write_json(tmp_path, "b.json", spec(0.5 + 1e-8))
    proc = run_cli(["compare", a, b], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["equivalent"] == "yes"


@pytest.mark.parametrize("phi, spread", [
    (phi, spread) for phi in (0.5, 0.1, 0.01, 1e-4) for spread in (1e-10, 1e-9, 1e-8)])
def test_cmd_compare_near_equal_angles_with_a_unitary_image(tmp_path, capsys, phi, spread):
    # w has two pairs whose angles decompose groups into one factor: the
    # congruence witness of w and its Haar image used to raise (exit 2)
    w = kahler.canonical_subspace(4, [(phi, 2), (phi + spread, 2)])
    spec = PolarActionSpec(n=5, family="II", b_flag="full", w=w, q_section=normalizer_section(w))
    A = kahler.haar_unitary(4, np.random.default_rng(11))
    image = PolarActionSpec(n=5, family="II", b_flag="full",
                            w=kahler.RealSubspace(4, w.basis @ A.T),
                            q_section=kahler.RealSubspace(4, spec.q_section.basis @ A.T))
    a = write_json(tmp_path, "a.json", spec.to_json())
    b = write_json(tmp_path, "b.json", image.to_json())
    assert main(["compare", a, b]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["witness_unitarity"] < 1e-12


# --- curvature --------------------------------------------------------------------


def test_cmd_curvature_b_zero(tmp_path, capsys):
    n = 4
    w = kahler.canonical_subspace(n - 1, [(math.pi / 2, 2)])
    spec = PolarActionSpec(
        n=n, family="II", b_flag="zero", w=w,
        q_basis=kahler.normalizer_algebra(w), q_section=normalizer_section(w),
    )
    rc = main(["curvature", write_json(tmp_path, "s.json", spec.to_json())])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["mean_curvature"]["a_part"] == pytest.approx(0.5 * (2 + 2))
    assert out["max_deviation"] < 1e-9


def curvature_spec(n, b_flag):
    """A family II spec whose w, a Haar image of [(pi/3, 2), (pi/2, n - 3)]
    in C^{n-1}, has no coordinate-aligned row."""
    w = kahler.canonical_subspace(n - 1, [(math.pi / 3, 2), (math.pi / 2, n - 3)])
    w = kahler.RealSubspace(n - 1, w.basis @ kahler.haar_unitary(n - 1, np.random.default_rng(n)).T)
    return PolarActionSpec(n=n, family="II", b_flag=b_flag, q_type="normalizer", w=w,
                           q_section=normalizer_section(w))


# curvature prints the numeric mean curvature beside the closed form at 17
# digits, so its bytes pin every floating-point operation of the orbit model
# and of the shape operators it sums.
CURVATURE_SHA256 = {
    (3, "full"): "abc05dd7d7af57ad1d1153d8ec2566fa693b7798e1174e16455b1d5d45672ab0",
    (3, "zero"): "d5db1b331b5908f1b23527027c8f8fe4219a70d71660d00c6f6af2d0613cdbfc",
    (4, "full"): "9d73eac657b410e36138e8ede878c64f38519792cd793ec9681b65fe5d1fb3fd",
    (4, "zero"): "82211302e18f5e53849111c6994d3d3f4d35339917e938578af005be164fabcd",
}


@pytest.mark.parametrize("n, b_flag", sorted(CURVATURE_SHA256))
def test_cmd_curvature_output_is_pinned(tmp_path, capsys, n, b_flag):
    spec = curvature_spec(n, b_flag)
    assert main(["curvature", write_json(tmp_path, "s.json", spec.to_json())]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["max_deviation"] < 1e-9
    assert hashlib.sha256(text.encode()).hexdigest() == CURVATURE_SHA256[n, b_flag]


def test_cmd_curvature_family_I_is_input_error(tmp_path, capsys):
    spec = PolarActionSpec(n=3, family="I", k=3)
    assert main(["curvature", write_json(tmp_path, "s.json", spec.to_json())]) == 2


# --- selfcheck and output handling --------------------------------------------------


def test_cmd_selfcheck_passes(capsys):
    rc = main(["selfcheck", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["ok"] is True


def test_cmd_selfcheck_catches_a_wrong_Z(capsys, monkeypatch):
    # with Z of the wrong sign, -[theta X(u), Z] is -X(iu): the J identity,
    # evaluated at one draw, must read the error at every seed and selfcheck
    # must exit 1
    original = su1n.build_root_decomposition
    monkeypatch.setattr(su1n, "build_root_decomposition",
                        lambda n: dataclasses.replace(original(n), Z=-original(n).Z))
    for seed in range(8):
        assert main(["selfcheck", "--n", "3", "--seed", str(seed)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert out["max_residuals"]["bracket_with_Z_defines_J"] > 1.0, seed


# selfcheck prints rounding-level residuals at 17 digits, so its bytes pin
# every floating-point operation of galpha_matrices, traceless_block and the
# root decomposition it runs through.
SELFCHECK_SHA256 = {
    2: "024feaa6185fe5510b60b1293c9934961e0def120dcc0dc029f1047c2af034ed",
    3: "ec19963526b0d892cb5b65c6f403a4646ad203e455d49361eb7a17f0c4c5068a",
    4: "c90f223d82da2608a278dc3ee8d6038a32520b58157c2838e4c6634ce32f7169",
}


@pytest.mark.parametrize("n", sorted(SELFCHECK_SHA256))
def test_cmd_selfcheck_output_is_pinned(capsys, n):
    assert main(["selfcheck", "--n", str(n), "--seed", "1"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == SELFCHECK_SHA256[n]


def test_deterministic_byte_identical_output(tmp_path):
    a = write_json(tmp_path, "a.json", {**spec_pi3().to_json(), "seed": 11})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", a, "--out", str(out1)]) == 0
    assert main(["verify", a, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main(["enumerate", "--n", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chpolar: input error: cannot write output: ")
    assert captured.err.count("\n") == 1


def test_render_json_17_digits():
    text = render_json({"x": 1.0 / 3.0})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1.0 / 3.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_render_json_refuses_a_non_finite_float(value):
    # JSON holds no NaN or Infinity: "nan" would be output no reader takes
    with pytest.raises(su1n.ConsistencyError, match="non-finite number"):
        render_json({"report": [1.0, value]})


def test_a_non_finite_residual_exits_3_and_prints_nothing(capsys, monkeypatch):
    def verify_nan(args):
        cli._emit({"verdict": True, "bracket_residual": math.nan}, args)
        return 0

    monkeypatch.setitem(cli._COMMANDS, "verify", verify_nan)
    assert main(["verify", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("chpolar: internal consistency error: ") and "nan" in captured.err


def test_bad_config_exit_2(capsys):
    assert main(["selfcheck", "--n", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "7"],
    ["verify", "--tol-angle", "5"],
    ["decompose", "--seed", "3"],
    ["compare", "a.json", "b.json", "--tol-rank", "1e-3"],
    ["verify", "--tol-rank", "-1"],
    ["decompose", "--tol-eig", "1e-6"],
    ["verify", "--seed", "7"],
    ["selfcheck", "--format", "text"],
    ["compare", "a.json", "b.json", "--seed", "1"],
])
def test_flag_the_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_import_cli_leaves_scipy_unloaded():
    code = (
        "import sys, chpolar.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["decompose", "verify", "compare", "enumerate", "curvature",
                                     "selfcheck"])
def test_no_command_imports_numpy_random(tmp_path, command):
    # every draw comes from the standard library's random.Random, so no
    # command pays for the numpy.random import
    spec = write_json(tmp_path, "s.json", spec_pi3().to_json())
    argv = {
        "decompose": [write_json(tmp_path, "w.json", spec_pi3().w.to_json())],
        "verify": [spec],
        "compare": [spec, spec],
        "enumerate": ["--n", "2"],
        "curvature": [spec],
        "selfcheck": ["--n", "3"],
    }[command]
    code = ("import sys; from chpolar.cli import main; rc = main(sys.argv[1:]); "
            "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, command, *argv, "--out", str(tmp_path / "o.json")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "False"
