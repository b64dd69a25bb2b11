"""Run one chpolar CLI op in-process with a span around each layer call.

    python trace_op.py OP_ID SPANS_OUT T_SPAWN CLI_ARG...

``T_SPAWN`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (the clock is system-wide on Linux), so the first span,
``cli.startup``, covers interpreter start.  ``cli.import`` covers
``import chpolar.cli``; ``cli.main`` covers ``chpolar.cli.main(argv)``.
The public functions in ``WRAPPED`` are wrapped by rebinding the name in
every chpolar module that holds it, so calls through
``polar.build_root_decomposition`` are caught as well as calls through
``su1n.build_root_decomposition``.  Spans stay in memory and are written to
SPANS_OUT as JSON when the op ends: ``{"op": OP_ID, "spans": [...]}``, each
span ``[name, start, end, parent, tag]`` with ``parent`` an index into the
list (-1 for none).  The exit code is the op's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

WRAPPED = {
    "cli": ("render_json",),
    "su1n": ("build_root_decomposition", "bracket"),
    "polar": ("build_family_I", "build_family_II", "check_polarity",
              "enumerate_moduli", "orbit_equivalence_invariants"),
    "kahler": ("decompose", "congruent", "normalizer_algebra"),
    "angeom": ("mean_curvature", "holomorphic_sectional_curvature"),
}

# span names that carry an argument, and tags taken from a result
LABELS = {"su1n.build_root_decomposition": lambda args: f".n{int(args[0])}"}
TAGS = {"polar.orbit_equivalence_invariants": lambda result: result[0]}


class Tracer:
    """Spans of one op, in call order; ``stack`` holds the open ones."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def record(self, name, start, end):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        label = LABELS.get(name)
        tag = TAGS.get(name)

        def traced(*args, **kwargs):
            # a recursive call (render_json) folds into the open span
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = self.open(name + label(args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if tag:
                span[4] = tag(result)
            return result

        return traced


def install(tracer):
    """Rebind every name in WRAPPED wherever the package looks it up."""
    import chpolar
    from chpolar import angeom, cli, kahler, polar, su1n

    layers = {"cli": cli, "su1n": su1n, "polar": polar, "kahler": kahler, "angeom": angeom}
    modules = [chpolar, *layers.values()]
    for layer, names in WRAPPED.items():
        for fname in names:
            original = getattr(layers[layer], fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for mod in modules:
                if getattr(mod, fname, None) is original:
                    setattr(mod, fname, wrapper)


def main(argv):
    op_id, spans_out, t_spawn, cli_argv = argv[0], argv[1], float(argv[2]), argv[3:]
    tracer = Tracer()
    tracer.record("cli.startup", t_spawn, T_START)
    t0 = time.perf_counter()
    import chpolar.cli

    tracer.record("cli.import", t0, time.perf_counter())
    install(tracer)
    span = tracer.open("cli.main")
    try:
        code = chpolar.cli.main(cli_argv)
    finally:
        tracer.close(span)
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump({"op": op_id, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
