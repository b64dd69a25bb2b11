"""Command line interface: JSON in, JSON out, reproducible by seed.

Subcommands:

    decompose   RealSubspace JSON -> Kahler decomposition JSON
    verify      PolarActionSpec JSON -> polarity report (exit 0 iff polar)
    compare     two spec files -> orbit equivalence report
    enumerate   moduli catalog for a given n and angle grid
    curvature   family II spec -> mean curvature of the core orbit
    selfcheck   structural identity suite for the Lie model

Each subcommand takes only the flags it reads; argparse rejects any other
flag with exit code 2.

Exit codes: 0 success / verdict true, 1 verdict false or not equivalent
(this includes 'undetermined' equivalence answers), 2 input error,
3 internal consistency error.  All floating point numbers are printed
with 17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import angeom, kahler, polar, su1n
from .su1n import ConsistencyError


@dataclass
class RunConfig:
    n: int = 2
    tol_eig: float = kahler.TOL_EIG
    tol_rank: float = polar.TOL_RANK
    seed: int = 0
    fmt: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        for name in ("tol_eig", "tol_rank"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fmt not in ("json", "text"):
            raise ValueError("format must be 'json' or 'text'")


def render_json(obj, indent=0):
    """Deterministic JSON with floats at 17 significant digits."""
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
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _emit(payload, config):
    text = render_json(payload) + "\n" if config.fmt == "json" else _as_text(payload) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload, prefix=""):
    """Indented text; tuples print as lists, as in render_json."""
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list, tuple)):
                lines.append(f"{prefix}{k}:")
                lines.append(_as_text(v, prefix + "  "))
            else:
                vv = format(v, ".17g") if isinstance(v, float) else v
                lines.append(f"{prefix}{k}: {vv}")
    elif isinstance(payload, (list, tuple)):
        for v in payload:
            if isinstance(v, (dict, list, tuple)):
                lines.append(_as_text(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{payload}")
    return "\n".join(line for line in lines if line)


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON input: {exc}") from exc


# -- subcommands ------------------------------------------------------------


def cmd_decompose(args, config):
    data = _read_json(args.input)
    try:
        V = kahler.RealSubspace.from_json(data)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed RealSubspace JSON: {exc}") from exc
    dec = kahler.decompose(V, tol_eig=config.tol_eig)
    _emit(dec.to_json(), config)
    return 0


def _read_spec(path):
    """The PolarActionSpec of a JSON file, with the JSON it was read from."""
    data = _read_json(path)
    try:
        return polar.PolarActionSpec.from_json(data), data
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed PolarActionSpec JSON: {exc}") from exc


def cmd_verify(args, config):
    spec, data = _read_spec(args.input)
    # the spec's own seed wins whenever the spec has one, 0 included
    seed = spec.seed if "seed" in data else config.seed
    report = polar.check_spec(spec, seed=seed, tol_rank=config.tol_rank)
    _emit(report.to_json(), config)
    return 0 if report.verdict else 1


def cmd_compare(args, config):
    specs = [_read_spec(path)[0] for path in (args.input_a, args.input_b)]
    for spec in specs:
        polar._checked_inputs(spec)  # the input check of verify
    answer, report = polar.orbit_equivalence_invariants(*specs, seed=config.seed)
    payload = {"equivalent": answer, "report": report}
    _emit(payload, config)
    return 0 if answer == "yes" else 1


def cmd_enumerate(args, config):
    angles = _parse_angles(args.angles)
    catalog = polar.enumerate_moduli(config.n, angles, seed=config.seed)
    payload = {
        "n": config.n,
        "angle_grid": list(angles),
        "count": len(catalog),
        "classes": [
            {"label": entry.label, "spec": entry.spec.to_json()} for entry in catalog
        ],
    }
    _emit(payload, config)
    return 0


def cmd_curvature(args, config):
    spec, _ = _read_spec(args.input)
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
    _emit(payload, config)
    return 0


def cmd_selfcheck(args, config):
    payload, ok = identity_suite(config.n, config.seed)
    _emit(payload, config)
    return 0 if ok else 1


def identity_suite(n, seed=0, trials=100):
    """Residuals of the structural identities of the Lie model.

    Covers the two auxiliary bracket identities of the root-space model
    (J X(u) = -[theta X(u), Z] is X(iu) on g_a, and the k_0 pairing), the
    a+n bracket formula against the matrix commutator, metric normalization,
    and constant holomorphic sectional curvature -1.
    """
    rd = su1n.build_root_decomposition(n)
    rng = np.random.default_rng(seed)

    def rand_galpha():
        return rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)

    def galpha(u):
        return su1n.galpha_matrices(u[None])[0]

    res_a = 0.0
    res_b = 0.0
    res_br = 0.0
    res_curv = 0.0
    k0_gens = kahler.skew_hermitian_basis(n - 1)
    for _ in range(trials):
        u = rand_galpha()
        X = galpha(u)
        Y = galpha(rand_galpha())
        T = su1n.traceless_block(n, sum(rng.standard_normal() * g for g in k0_gens))
        res_a = max(res_a, su1n.norm(su1n.bracket(su1n.theta(X), rd.Z) + galpha(1j * u)))
        val1 = su1n.inner(T, su1n.bracket(su1n.theta(X), Y) + su1n.theta(su1n.bracket(su1n.theta(X), Y)))
        val2 = 2.0 * su1n.inner(su1n.bracket(T, X), Y)
        res_b = max(res_b, abs(val1 - val2))

        v1 = angeom.an_vector(rng.standard_normal(), rand_galpha(), rng.standard_normal())
        v2 = angeom.an_vector(rng.standard_normal(), rand_galpha(), rng.standard_normal())
        m1, m2 = angeom.an_matrix(v1), angeom.an_matrix(v2)
        m_br = angeom.an_matrix(angeom.an_bracket(v1, v2))
        res_br = max(res_br, su1n.norm(su1n.bracket(m1, m2) - m_br))

        res_curv = max(
            res_curv, abs(angeom.holomorphic_sectional_curvature(v1) + 1.0)
        )

    metric = {
        "inner_B_B": su1n.inner(rd.B, rd.B),
        "inner_Z_Z": su1n.inner(rd.Z, rd.Z),
        "inner_an_Z_Z": su1n.inner_an(rd.Z, rd.Z),
    }
    checks = {
        "bracket_with_Z_defines_J": res_a,
        "k0_pairing_identity": res_b,
        "an_bracket_vs_commutator": res_br,
        "holomorphic_curvature_plus_1": res_curv,
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
        "trials": trials,
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
    for val in out:
        if not (0.0 < val < math.pi / 2):
            raise ValueError("angles must lie strictly between 0 and pi/2")
    return out


_FLAGS = {
    "--n": dict(type=int, default=2, help="complex dimension, n >= 2"),
    "--tol-eig": dict(type=float, default=kahler.TOL_EIG, help="grouping of cos^2 angles"),
    "--tol-rank": dict(type=float, default=polar.TOL_RANK, help="slice-condition rank cutoff"),
    "--seed": dict(type=int, default=0, help="seed of the samplers"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chpolar",
        description="verification tools for polar actions on complex hyperbolic space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, *names):
        """The output flags, and each named flag of _FLAGS: a flag goes only
        on the subcommands that read it, so argparse rejects it elsewhere."""
        for name in names:
            p.add_argument(name, **_FLAGS[name])
        p.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write output to FILE instead of stdout")

    def with_input(p):
        p.add_argument("input", nargs="?", default="-",
                       help="input JSON file, '-' for stdin (default)")
        return p

    add_flags(with_input(sub.add_parser(
        "decompose", help="Kahler decomposition of a real subspace")), "--tol-eig")
    add_flags(with_input(sub.add_parser(
        "verify", help="run the polarity criterion on an action spec")), "--tol-rank", "--seed")
    p = sub.add_parser("compare", help="orbit equivalence of two action specs")
    p.add_argument("input_a")
    p.add_argument("input_b")
    add_flags(p, "--seed")
    p = sub.add_parser("enumerate", help="enumerate moduli classes")
    p.add_argument("--angles", default="",
                   help="comma separated interior Kahler angles for the w moduli")
    add_flags(p, "--n", "--seed")
    add_flags(with_input(sub.add_parser(
        "curvature", help="mean curvature of a family II core orbit")))
    add_flags(sub.add_parser("selfcheck", help="structural identity suite"), "--n", "--seed")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**{
            f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)
        })
        return _COMMANDS[args.command](args, config)
    except ValueError as exc:
        print(f"chpolar: input error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"chpolar: internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
