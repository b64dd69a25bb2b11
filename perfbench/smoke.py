"""Smoke test of the benchmark itself at tiny sizes (n <= 3).

    python3 perfbench/smoke.py

Runs a few small cli-catalog ops through the real measuring code and
checks that every metric BENCHMARK.json names comes out with its unit
(traced and untraced), that the traced run executes the same op list as the
untraced one, and that the oracles flag deliberately wrong expected answers.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

KEEP = ("verify-class00", "verify-wrong-section", "compare-conjugate",
        "decompose", "curvature", "enumerate-n2")


class TinyWorkloads:
    """The workloads module cut down to KEEP, with optional wrong answers."""

    WORKLOADS = ("cli-catalog",)

    def __init__(self, workloads, corrupt=None):
        self.real = workloads
        self.check = workloads.check
        self.corrupt = corrupt or {}

    def make_ops(self, workload, seed, workdir):
        ops = [op for op in self.real.make_ops(workload, seed, workdir) if op["id"] in KEEP]
        for op in ops:
            op["expect"] = {**op["expect"], **self.corrupt.get(op["id"], {})}
        return ops


# wrong expected answers, one per oracle kind exercised
CORRUPT = {
    "verify-class00": {"dim_normal": -1},
    "verify-wrong-section": {"exit": 0, "verdict": True},
    "compare-conjugate": {"equivalent": "no", "exit": 1},
    "decompose": {"moduli": [[0.1, 2], [1.5707963267948966, 1]]},
    "curvature": {"a_part": 1.0},
    "enumerate-n2": {"n": 3},
}


def measure(workloads, trace):
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="smoke-", dir=run.WORK) as scratch:
        return run.measure(workloads, "cli-catalog", 7, 0.1, trace, scratch)


def expect(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def main():
    workloads = run.load_package()
    failures = []
    declared = {t: {m["name"]: m["unit"] for m in run.declared_metrics(t)} for t in (0, 1)}

    for trace in (0, 1):
        record, result = measure(TinyWorkloads(workloads), trace)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == declared[trace], f"trace {trace}: every declared metric, with its unit",
               failures)
        expect(result["correct"] and result["failed"] == 0,
               f"trace {trace}: all oracles pass ({record['failures']})", failures)
        if trace:
            untraced, traced = record["passes"]
            expect(traced == untraced == record["op_list"] and len(traced) == len(KEEP),
                   "traced and untraced passes run the same op list", failures)

    record, result = measure(TinyWorkloads(workloads, CORRUPT), 0)
    flagged = {f["id"] for f in record["failures"]}
    expect(flagged == set(CORRUPT) and not result["correct"]
           and result["failed"] == len(CORRUPT),
           f"oracles flag every wrong expected answer ({sorted(flagged)})", failures)
    print(json.dumps({"smoke_ok": not failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
