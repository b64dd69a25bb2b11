"""Compare benchmark runs of two commits, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of ``run.py --trace 0`` runs
(one file per run, any file names).  For every workload and every
end-to-end metric of BENCHMARK.json, plus the typical op time ``op_p50_s``,
the catalog time ``enumerate_s`` and the ``verify_s.n*`` scaling curve kept
in the run records, this prints
the parent's and the change's median and quartiles and one verdict:

- better:     the change wins at least nine tenths of the pairs (ties count
              for neither) and the medians differ by more than the
              parent's own quartile spread, with no more failed ops than
              the parent;
- unresolved: the parent's quartile spread, as a share of its median, is
              wider than the bound, unless every change run reads better
              than every parent run;
- worse:      the change's median is worse than the parent's by more than
              the bound;
- unchanged:  otherwise.

Runs are paired by seed when both sides ran the same seeds, else in seed
order.  Bounds come from BENCHMARK.json; the record-only figures take the
bound of ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# record-only figures, judged with the bound of wall_s
RECORD_ONLY = ("op_p50_s", "enumerate_s", "verify_s.n8", "verify_s.n12", "verify_s.n16")
WIN_SHARE = 0.9


def load_records(directory):
    """workload -> list of run records (trace 0 only), sorted by seed."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).iterdir()):
        if not path.is_file():
            continue
        for line in reversed(path.read_text().splitlines()):
            if line.startswith('{"record"'):
                record = json.loads(line)["record"]
                if record["trace"] == 0:
                    runs[record["workload"]].append(record)
                break
    for records in runs.values():
        records.sort(key=lambda r: r["env"]["seed"])
    return runs


def metric_table():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name in RECORD_ONLY:
        table[name] = table["wall_s"]
    return table


def pair(parent, change):
    """Index pairs: by seed where both sides share the seed set, else in order."""
    pseeds = [r["env"]["seed"] for r in parent]
    cseeds = [r["env"]["seed"] for r in change]
    if sorted(pseeds) == sorted(cseeds):
        return [(pseeds.index(s), cseeds.index(s)) for s in pseeds]
    return list(zip(range(len(parent)), range(len(change))))


def verdict(pvals, cvals, pairs, better, bound, more_failures):
    """One of better / worse / unchanged / unresolved (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0   # gain = (parent - change) * sign
    pmed, cmed = statistics.median(pvals), statistics.median(cvals)
    q1, _, q3 = statistics.quantiles(pvals, n=4)
    wins = sum((pvals[i] - cvals[j]) * sign > 0 for i, j in pairs)
    if (not more_failures and wins >= WIN_SHARE * len(pairs)
            and (pmed - cmed) * sign > q3 - q1):
        return "better"
    if (q3 - q1) / pmed > bound:
        all_better = all((p - c) * sign > 0 for p in pvals for c in cvals)
        return "unchanged" if all_better else "unresolved"
    if (cmed - pmed) * sign / pmed > bound:
        return "worse"
    return "unchanged"


def quartiles(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_runs, change_runs):
    table = metric_table()
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if len(parent) < 2 or len(change) < 2:
            rows.append((workload, "-", "-", "-", f"needs 2+ runs a side "
                         f"(have {len(parent)} and {len(change)})"))
            continue
        pairs = pair(parent, change)
        pfail = sum(len(r["failures"]) for r in parent)
        cfail = sum(len(r["failures"]) for r in change)
        for name, (better, bound) in table.items():
            if name not in parent[0]["metrics"]:
                continue
            pvals = [r["metrics"][name]["value"] for r in parent]
            cvals = [r["metrics"][name]["value"] for r in change]
            v = verdict(pvals, cvals, pairs, better, bound, cfail > pfail)
            note = f"{len(pairs)} pairs, failed ops {pfail} -> {cfail}"
            rows.append((workload, name, quartiles(pvals), quartiles(cvals), f"{v} ({note})"))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description="compare benchmark runs of two commits")
    p.add_argument("parent", help="directory of the parent commit's run outputs")
    p.add_argument("change", help="directory of the change's run outputs")
    args = p.parse_args(argv)
    rows = compare(load_records(args.parent), load_records(args.change))
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
              "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
