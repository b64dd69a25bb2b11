"""Command line interface: JSON in, JSON out, reproducible by seed.

Subcommands:

    decompose   RealSubspace JSON -> Kahler decomposition JSON
    verify      PolarActionSpec JSON -> polarity report (exit 0 iff polar)
    compare     two spec files -> orbit equivalence report
    enumerate   moduli catalog for a given n and angle grid
    curvature   family II spec -> mean curvature of the core orbit
    selfcheck   structural identity suite for the Lie model

Each subcommand takes only the flags it reads; argparse rejects any other
flag with exit code 2.  No flag changes a bound: the tolerances are the
library's constants (``polar.TOL_RANK``, ``kahler.TOL_ANGLE``, ...), so a
verdict depends on the input alone.  Every draw comes from Python's
``random.Random(seed)``: ``verify`` seeds it with the spec's own ``seed``
key (0 when absent), compare with 0, and ``--seed`` seeds selfcheck only:
enumerate draws nothing, and accepts ``--seed`` and reads nothing from it,
for the benchmark's command lines.  Output is JSON only.

Exit codes: 0 success / verdict true, 1 verdict false or not equivalent
(this includes 'undetermined' equivalence answers), 2 input error,
3 internal consistency error.  An output that cannot be written, an
``--out`` file or stdout, is an input error; after a failed write to
stdout, fd 1 points at ``os.devnull``, so the interpreter's final flush
cannot turn exit 2 into 120.  All floating point numbers are printed
with 17 significant digits so doubles round-trip exactly; a NaN or an
infinity, which JSON cannot hold, is an internal consistency error.

``main`` first calls ``gc.freeze()``, the one process-wide effect of a
run: the objects the imports built (about 22 k, numpy's and chpolar's
modules, functions and types) move to the permanent generation, so
neither the run's collections nor the interpreter's final ones walk them.
The collector stays on for what the run makes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import sys

import numpy as np

from . import angeom, kahler, polar, su1n
from .su1n import ConsistencyError


def render_json(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits; a NaN or
    infinite float, which JSON cannot hold, is a ConsistencyError."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ConsistencyError(f"cannot write the non-finite number {float(obj)!r} as JSON")
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _emit(payload, args):
    text = render_json(payload) + "\n"
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # the final flush at exit would retry the write and exit 120
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write output: {exc}") from exc


def _read(path, parse, what):
    """parse applied to the JSON of a file ('-' for stdin); unreadable JSON,
    and a key or type that parse misses, are input errors."""
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}") from exc


# -- subcommands ------------------------------------------------------------


def cmd_decompose(args):
    V = _read(args.input, kahler.RealSubspace.from_json, "RealSubspace")
    _emit(kahler.decompose(V).to_json(), args)
    return 0


def cmd_verify(args):
    spec = _read(args.input, polar.PolarActionSpec.from_json, "PolarActionSpec")
    report = polar.check_spec(spec)
    _emit(report.to_json(), args)
    return 0 if report.verdict else 1


def cmd_compare(args):
    specs = [_read(path, polar.PolarActionSpec.from_json, "PolarActionSpec")
             for path in (args.input_a, args.input_b)]
    answer, report = polar.orbit_equivalence_invariants(*specs)
    payload = {"equivalent": answer, "report": report}
    _emit(payload, args)
    return 0 if answer == "yes" else 1


def cmd_enumerate(args):
    angles = sorted(set(_parse_angles(args.angles)))  # the grid the catalog uses
    catalog = polar.enumerate_moduli(args.n, angles)
    payload = {
        "n": args.n,
        "angle_grid": angles,
        "count": len(catalog),
        "classes": [
            {"label": entry.label, "spec": entry.spec.to_json()} for entry in catalog
        ],
    }
    _emit(payload, args)
    return 0


def cmd_curvature(args):
    spec = _read(args.input, polar.PolarActionSpec.from_json, "PolarActionSpec")
    polar._checked_inputs(spec)  # the input check of verify
    if spec.family != "II":
        raise ValueError("mean curvature of the core orbit is a family II quantity")
    orbit = angeom.OrbitModel.from_flag(spec.n, spec.b_flag, list(spec.w.basis))
    numeric = angeom.mean_curvature(orbit)
    closed = angeom.mean_curvature_closed_form(orbit)
    payload = {
        "mean_curvature": angeom.an_json(numeric),
        "closed_form": angeom.an_json(closed),
        "max_deviation": angeom.norm(numeric - closed),
    }
    _emit(payload, args)
    return 0


def cmd_selfcheck(args):
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    payload, ok = identity_suite(args.n, args.seed)
    _emit(payload, args)
    return 0 if ok else 1


def identity_suite(n, seed=0):
    """Residuals of the structural identities of the Lie model.

    Covers the two auxiliary bracket identities of the root-space model
    (J X(u) = -[theta X(u), Z] is X(iu) on g_a, and the k_0 pairing), the
    a+n bracket formula against the matrix commutator, metric normalization,
    and constant holomorphic sectional curvature -1.  Each identity is
    evaluated once, at Gaussian draws of ``random.Random(seed)``: where a
    polynomial identity fails it fails on an open dense set, so one generic
    draw decides it.
    """
    rd = su1n.build_root_decomposition(n)
    rng = random.Random(seed)

    def gauss():
        return rng.gauss(0.0, 1.0)

    def rand_galpha():
        return np.array([complex(gauss(), gauss()) for _ in range(n - 1)])

    def galpha(u):
        return su1n.galpha_matrices(u[None])[0]

    k0_gens = kahler.skew_hermitian_basis(n - 1)
    u = rand_galpha()
    X = galpha(u)
    Y = galpha(rand_galpha())
    T = su1n.traceless_block(n, sum(gauss() * g for g in k0_gens))
    val1 = su1n.inner(T, su1n.bracket(su1n.theta(X), Y) + su1n.theta(su1n.bracket(su1n.theta(X), Y)))
    val2 = 2.0 * su1n.inner(su1n.bracket(T, X), Y)
    v1 = angeom.an_vector(gauss(), rand_galpha(), gauss())
    v2 = angeom.an_vector(gauss(), rand_galpha(), gauss())
    m1, m2 = angeom.an_matrix(v1), angeom.an_matrix(v2)
    m_br = angeom.an_matrix(angeom.an_bracket(v1, v2))

    metric = {
        "inner_B_B": su1n.inner(rd.B, rd.B),
        "inner_Z_Z": su1n.inner(rd.Z, rd.Z),
        "inner_an_Z_Z": su1n.inner_an(rd.Z, rd.Z),
    }
    checks = {
        "bracket_with_Z_defines_J": su1n.norm(su1n.bracket(su1n.theta(X), rd.Z) + galpha(1j * u)),
        "k0_pairing_identity": abs(val1 - val2),
        "an_bracket_vs_commutator": su1n.norm(su1n.bracket(m1, m2) - m_br),
        "holomorphic_curvature_plus_1": abs(angeom.holomorphic_sectional_curvature(v1) + 1.0),
        "metric_B_minus_1": abs(metric["inner_B_B"] - 1.0),
        "metric_Z_minus_2": abs(metric["inner_Z_Z"] - 2.0),
    }
    thresholds = {
        "bracket_with_Z_defines_J": 1e-10,
        "k0_pairing_identity": 1e-10,
        "an_bracket_vs_commutator": 1e-10,
        "holomorphic_curvature_plus_1": 1e-7,
        "metric_B_minus_1": 1e-12,
        "metric_Z_minus_2": 1e-12,
    }
    ok = all(checks[k] <= thresholds[k] for k in checks)
    payload = {
        "n": n,
        "max_residuals": checks,
        "metric": metric,
        "ok": ok,
    }
    return payload, ok


def _parse_angles(text):
    if not text:
        return []
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            val = float(token)
        except ValueError as exc:
            raise ValueError(f"bad angle {token!r}") from exc
        out.append(val)
    return out


_FLAGS = {
    "--n": dict(type=int, default=2, help="complex dimension, n >= 2"),
    "--seed": dict(type=int, default=0, help="seed of the samplers"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chpolar", allow_abbrev=False,  # a flag is spelled out: --angle is not --angles
        description="verification tools for polar actions on complex hyperbolic space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *names):
        """--out, and each named flag of _FLAGS: a flag goes only on the
        subcommands that read it, so argparse rejects it elsewhere."""
        for name in names:
            p.add_argument(name, **_FLAGS[name])
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")

    def with_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON file, '-' for stdin (default)")
        return p

    def command(name, summary):  # subparsers do not inherit allow_abbrev
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    add_flags(with_input(command("decompose", "Kahler decomposition of a real subspace")))
    add_flags(with_input(command(
        "verify", "run the polarity criterion on an action spec (seeded by the spec)")))
    p = command("compare", "orbit equivalence of two action specs")
    p.add_argument("input_a")
    p.add_argument("input_b")
    add_flags(p)
    p = command("enumerate", "enumerate moduli classes")
    p.add_argument("--angles", default="",
                   help="comma separated interior Kahler angles for the w moduli")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and unused: the catalog draws nothing")
    add_flags(p, "--n")
    add_flags(with_input(command("curvature", "mean curvature of a family II core orbit")))
    add_flags(command("selfcheck", "structural identity suite"), "--n", "--seed")
    return parser


_COMMANDS = {
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "enumerate": cmd_enumerate,
    "curvature": cmd_curvature,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None):
    gc.freeze()  # no collection, at exit either, walks the objects the imports built
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--angles" in argv[:-1]:  # its value may start with "-", which argparse reads as a flag
        i = argv.index("--angles")
        argv[i:i + 2] = [f"--angles={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"chpolar: input error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"chpolar: internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
