"""chpolar benchmark: real CLI runs on seeded workloads, checked by oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
the package is imported from its ``src/``.  One closed-loop client runs the
workload's fixed op list (see ``workloads.py``), each op as a fresh
``python -m chpolar.cli ...`` process that it waits for, so interpreter
start and ``import chpolar`` are part of every op.  After one full pass
over the list, ops go on in the same cyclic order while the next one, at
its last time, still ends within ``--seconds``; every op's figure is its
median over the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untraced pass and then the same op list in-process
through ``trace_op.py`` (one fresh interpreter per op, spans around each
layer call) and reports the per-layer metrics; its record holds the
end-to-end figures of the untraced pass too.  ``--workload all`` runs every
workload in turn, so ``--workload all --trace 1`` prints every metric.
Every op's exit code and output are checked in both modes; a failed check
counts in ``failed`` and does not stop the run.

Standard output ends with two JSON lines: ``{"record": ...}`` with the
environment, the seed, every figure measured and each failure, then the
result line ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_OP = BENCH / "trace_op.py"
WORK = ROOT / ".perfbench_work"   # per-run scratch directories, removed after
SETUP_REPEATS = 3
OP_TIMEOUT_S = 120.0
WARMUP_ARGV = ["enumerate", "--n", "2"]
# One BLAS thread for the runner and every op: on a small shared machine the
# BLAS pool's spinning threads made op times follow the machine's other load.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}

# end-to-end figures kept in the record only (op_p50_s, op_p90_s,
# enumerate_s and the verify_s.n* curve): they exist on one workload, or
# rest on too few samples in one run to hold a bound, so BENCHMARK.json
# does not list them
VERIFY_NS = (8, 12, 16)
TAIL_MIN = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def load_package():
    """Import chpolar and the workload module from this checkout's src/,
    after setting the environment that every op inherits."""
    if not (SRC / "chpolar" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chpolar package under {SRC}; "
                         "run from a checkout of the repository")
    os.environ.update(SINGLE_THREAD_BLAS)
    os.environ["PYTHONPATH"] = str(SRC)
    # ops import from a byte-code cache, as an installed package does; the
    # warm-up op of each set-up fills it
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.path.insert(0, str(SRC))
    import chpolar
    import workloads

    if Path(chpolar.__file__).resolve().parent != (SRC / "chpolar").resolve():
        raise SystemExit(f"perfbench: imported chpolar from {chpolar.__file__}, "
                         f"not from {SRC}")
    return workloads


# -- running one op ------------------------------------------------------------


class OpRunner:
    """Runs ops as child processes in ``workdir`` and checks their output."""

    def __init__(self, workloads, workdir):
        self.check = workloads.check
        self.workdir = Path(workdir)
        self.spans_dir = self.workdir / "spans"
        self.spans_dir.mkdir(exist_ok=True)

    def spawn(self, argv, trace_args=()):
        """Run one CLI op to completion: (exit code, wall seconds, CPU seconds,
        max RSS in KB)."""
        out_path = self.workdir / "stdout"
        with open(out_path, "wb") as out, open(self.workdir / "stderr", "wb") as err:
            t0 = time.perf_counter()
            if trace_args:
                cmd = [sys.executable, str(TRACE_OP), *trace_args, repr(t0), *argv]
            else:
                cmd = [sys.executable, "-m", "chpolar.cli", *argv]
            proc = subprocess.Popen(cmd, cwd=self.workdir, stdout=out, stderr=err)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def run(self, op, traced=False):
        spans_path = self.spans_dir / f"{op['id']}.json"
        trace_args = (op["id"], str(spans_path)) if traced else ()
        code, seconds, cpu, rss_kb = self.spawn(op["argv"], trace_args)
        error = (f"killed after {OP_TIMEOUT_S:g} s" if seconds >= OP_TIMEOUT_S else
                 self.check(op["expect"], code, (self.workdir / "stdout").read_text()))
        result = {"id": op["id"], "n": op["n"], "verb": op["argv"][0],
                  "seconds": seconds, "cpu_seconds": cpu, "rss_kb": rss_kb, "error": error}
        if traced:
            try:
                with open(spans_path) as fh:
                    result["spans"] = json.load(fh)["spans"]
                spans_path.unlink()
            except (OSError, json.JSONDecodeError) as exc:
                result["spans"] = []
                result["error"] = error or f"traced op left no spans: {exc}"
        return result


def run_pass(runner, ops, traced=False):
    return [runner.run(op, traced) for op in ops]


def run_timed(runner, ops, seconds):
    """One full pass over ``ops``, then more ops in the same cyclic order
    while the next one, at its last time, still ends within ``seconds``."""
    start = time.perf_counter()
    results = run_pass(runner, ops)
    last = {r["id"]: r["seconds"] for r in results}
    for i in itertools.count():
        op = ops[i % len(ops)]
        if time.perf_counter() - start + last[op["id"]] > seconds:
            return results
        results.append(runner.run(op))
        last[op["id"]] = results[-1]["seconds"]


# -- set-up ----------------------------------------------------------------


def setup(workloads, workload, seed, scratch):
    """Generate the inputs SETUP_REPEATS times (checking that the seed
    fixes them) and warm up with one untimed CLI op each time.  Returns
    (ops, an OpRunner in the last input directory, seconds per repeat)."""
    times, digest = [], None
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workdir = Path(scratch) / f"inputs{i}"
        workdir.mkdir()
        ops = workloads.make_ops(workload, seed, str(workdir))
        runner = OpRunner(workloads, workdir)
        code = runner.spawn(WARMUP_ARGV)[0]
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"perfbench: warm-up op {WARMUP_ARGV} exited {code}")
        h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
        for path in sorted(workdir.glob("*.json")):
            h.update(path.read_bytes())
        if digest not in (None, h.hexdigest()):
            raise SystemExit("perfbench: one seed produced two different input sets")
        digest = h.hexdigest()
    return ops, runner, times


# -- metrics -----------------------------------------------------------------


def end_to_end(results, setup_times):
    """Figures of the untraced ops ``results``; an op's time is its median
    over the run, and the op list's time the sum of those medians."""
    samples = defaultdict(list)
    for r in results:
        samples[r["id"]].append(r["seconds"])
    op_s = {op_id: statistics.median(times) for op_id, times in samples.items()}
    seconds = sorted(r["seconds"] for r in results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(op_s.values()), "s"),
        "op_p50_s": (statistics.median(op_s.values()), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024.0, "MB"),
    }
    # p90 only where at least TAIL_MIN samples lie beyond it
    p90 = statistics.quantiles(seconds, n=10)[-1] if len(seconds) > 1 else seconds[0]
    tail = sum(s > p90 for s in seconds)
    metrics["op_p90_s"] = (p90 if tail >= TAIL_MIN else None, "s")
    metrics["op_p90_tail_samples"] = (tail, "count")
    kind = {r["id"]: (r["verb"], r["n"]) for r in results}
    enumerate_s = [op_s[i] for i, (verb, _) in kind.items() if verb == "enumerate"]
    if enumerate_s:
        metrics["enumerate_s"] = (sum(enumerate_s), "s")
    for n in VERIFY_NS:
        times = [op_s[i] for i, k in kind.items() if k == ("verify", n)]
        if times:
            metrics[f"verify_s.n{n}"] = (statistics.median(times), "s")
    return metrics


def layer_totals(traced_pass):
    """Calls and self time per span name over one traced pass, plus the
    enumerate_moduli dedupe outcome (duplicates found, comparisons)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dups = comparisons = 0
    for result in traced_pass:
        spans = result["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, tag) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
            if (name == "polar.orbit_equivalence_invariants" and parent >= 0
                    and spans[parent][0] == "polar.enumerate_moduli"):
                comparisons += 1
                dups += tag == "yes"
    return calls, self_s, dups, comparisons


def per_layer(traced_pass, untraced_pass):
    calls, self_s, dups, comparisons = layer_totals(traced_pass)
    metrics = {
        "cli.startup_s": (self_s["cli.startup"], "s"),
        "cli.import_s": (self_s["cli.import"], "s"),
        "cli.render_json_s": (self_s["cli.render_json"], "s"),
    }
    for n in VERIFY_NS:
        metrics[f"su1n.build_root_decomposition_s.n{n}"] = (
            self_s[f"su1n.build_root_decomposition.n{n}"], "s")
    metrics["su1n.bracket.calls"] = (calls["su1n.bracket"], "count")
    for name in ("polar.build_family_I", "polar.build_family_II", "polar.check_polarity",
                 "polar.enumerate_moduli", "polar.orbit_equivalence_invariants",
                 "kahler.decompose", "kahler.congruent", "kahler.normalizer_algebra",
                 "angeom.mean_curvature"):
        metrics[f"{name}_s"] = (self_s[name], "s")
    for name in ("polar.check_polarity", "polar.orbit_equivalence_invariants",
                 "kahler.decompose", "angeom.holomorphic_sectional_curvature"):
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["polar.dedupe.useful_ratio"] = (dups / comparisons if comparisons else 0.0, "ratio")
    metrics["polar.dedupe.comparisons"] = (comparisons, "count")
    wall = [sum(r["seconds"] for r in p) for p in (traced_pass, untraced_pass)]
    metrics["trace.overhead_s"] = (wall[0] - wall[1], "s")
    return metrics


# -- environment and output ----------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(declared, measured, attempted, failed):
    metrics = {}
    for m in declared:
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def measure(workloads, workload, seed, seconds, trace, scratch):
    """Set up and run one workload; returns (record, result line)."""
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    ops, runner, setup_times = setup(workloads, workload, seed, scratch)
    if trace:
        passes = [run_pass(runner, ops), run_pass(runner, ops, traced=True)]
        measured = end_to_end(passes[0], setup_times)
        measured.update(per_layer(passes[1], passes[0]))
    else:
        results = run_timed(runner, ops, seconds)
        passes = [results[i:i + len(ops)] for i in range(0, len(results), len(ops))]
        measured = end_to_end(results, setup_times)
    results = [r for p in passes for r in p]
    failures = [{"pass": i, "id": r["id"], "error": r["error"]}
                for i, p in enumerate(passes) for r in p if r["error"]]
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "env": environment(seed),
        "op_list": [op["id"] for op in ops],
        "passes": [[r["id"] for r in p] for p in passes],
        "op_seconds": [[r["seconds"] for r in p] for p in passes],
        "op_cpu_seconds": [[r["cpu_seconds"] for r in p] for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "setup_times_s": setup_times,
        "error_rate": len(failures) / len(results),
        "failures": failures,
    }
    return record, result_line(declared_metrics(trace), measured, len(results), len(failures))


def main(argv=None):
    args = parse_args(argv)
    workloads = load_package()
    WORK.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as scratch:
            record, result = measure(workloads, name, args.seed, args.seconds,
                                     args.trace, scratch)
        for f in record["failures"]:
            print(f"perfbench: FAILED {name} {f['id']} (pass {f['pass']}): {f['error']}",
                  file=sys.stderr)
        print(json.dumps({"record": record}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
