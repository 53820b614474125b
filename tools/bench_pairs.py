"""Alternating parent/change pairs of the benchmark, summarized as BENCH_<pr>.json.

Usage, from the root of the repository:

    python3 tools/bench_pairs.py --base <commit> --pr <n> --seed <s> \
        [--pairs 10] [--seconds 25] [--workload w ...] [--claim w:metric] \
        [--change "what the change does"]

Two copies are made in a temporary directory: the parent from
``git archive <base>``, the change from the working tree's tracked and
untracked, not ignored, files.  Both then run the working tree's
``perfbench/``, so the two sides differ only in the code under test.  For
each workload, pair i (counted from 1) runs ``perfbench/run.py --workload
<w> --seed <s> --seconds <t>`` on the parent first when i is odd and on the
change first when i is even.

Each end-to-end metric of ``BENCHMARK.json`` gets both sides' runs, medians
and quartiles (``numpy.percentile``, linear), the pairs the change won
(ties count for neither side), the median change and the parent's IQR in
percent of the parent's median, the metric's bound, and a status by
:func:`status`.  The file is rewritten after every workload, so a run that
is cut short leaves the workloads it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def quartiles(runs) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": list(runs)}


def status(parent, change, better: str, bound: float, claimed: bool = False) -> str:
    """The verdict on one metric of one workload, from paired runs.

    A claimed metric is "claim met" when the change wins at least nine
    tenths of the pairs (ties count for neither side) and its median is
    better than the parent's by more than the parent's IQR.  Otherwise, and
    for every other metric, the bound decides: "unresolved (parent IQR
    wider than the bound)" when the parent's IQR exceeds ``bound`` (a
    fraction of the parent's median) and not every change run is better
    than every parent run; else "regression beyond the bound" when the
    change's median is worse than the parent's by more than ``bound``;
    else "within bound".  A claimed metric that is not met is prefixed
    "claim not met; ".
    """
    # Signed so that larger is better on both sides.
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    gain = sign * (c["median"] - p["median"])
    iqr = p["q3"] - p["q1"]
    if claimed and _wins(parent, change, sign) >= 0.9 * len(parent) and gain > iqr:
        return "claim met"
    prefix = "claim not met; " if claimed else ""
    scale = abs(p["median"])
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if iqr > bound * scale and not all_better:
        return prefix + "unresolved (parent IQR wider than the bound)"
    if -gain > bound * scale:
        return prefix + "regression beyond the bound"
    return prefix + "within bound"


def _wins(parent, change, sign: float) -> int:
    return sum(sign * (b - a) > 0 for a, b in zip(parent, change))


def summarize(parent, change, better: str, bound: float, claimed: bool = False) -> dict:
    """One metric's entry of a workload in the BENCH file."""
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "better": better,
        "change_wins": _wins(parent, change, 1.0 if better == "higher" else -1.0),
        "pairs": len(parent),
        "median_change_pct": 100.0 * (c["median"] - p["median"]) / p["median"],
        "parent_iqr_pct": 100.0 * (p["q3"] - p["q1"]) / p["median"],
        "bound_pct": 100.0 * bound,
        "status": status(parent, change, better, bound, claimed),
    }


def make_copies(base: str, into: Path) -> tuple[Path, Path]:
    """The parent (``git archive base``) and the change (the working tree),
    each with the working tree's ``perfbench/``."""
    parent, change = into / "parent", into / "change"
    archive = into / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", base], cwd=ROOT, stdout=fh, check=True)
    parent.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(parent, filter="data")
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():
            dst = change / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    for copy in (parent, change):
        shutil.rmtree(copy / "perfbench", ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return parent, change


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``copy``: its last stdout line, with the
    machine facts of its report."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    report = copy / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    result["facts"] = json.loads(report.read_text())["facts"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent commit")
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--claim", default=None, help="workload:metric the change claims")
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    claim = tuple(args.claim.split(":")) if args.claim else None
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()

    out_path = ROOT / f"BENCH_{args.pr}.json"
    threads = ", ".join(f"{v} {'unset' if os.environ.get(v) is None else os.environ[v]}"
                        for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    bench = {
        "pr": args.pr,
        "change": args.change,
        "command": f"python3 perfbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {args.seconds:g} (--trace 0)",
        "seed": args.seed,
        "order": f"{args.pairs} pairs per workload, workloads in turn "
                 f"({', '.join(workloads)}); pair i (from 1) runs the parent first "
                 "when i is odd, the change first when i is even",
        "parent_commit": base,
        "change_note": "the parent runs read a git archive of the parent commit, the "
                       "change runs a copy of the tracked and new files of the working "
                       "tree; both copies ran the working tree's perfbench/ files",
        "quartiles": "numpy.percentile, linear interpolation, over the runs of one side",
        "threads": f"{threads}; {os.cpu_count()} CPUs",
        "claim": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = dict(zip(("parent", "change"), make_copies(base, Path(tmp))))
        for workload in workloads:
            results = {"parent": [], "change": []}
            for i in range(1, args.pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for side in order:
                    results[side].append(run_once(sides[side], workload, args.seed, args.seconds))
                    print(f"{workload} pair {i} {side}: "
                          + json.dumps({k: v["value"] for k, v in
                                        results[side][-1]["metrics"].items()}),
                          file=sys.stderr, flush=True)
            bench["facts"] = results["change"][-1]["facts"]
            entry = {
                key: {side: (sum if key != "correct" else all)(r[key] for r in runs)
                      for side, runs in results.items()}
                for key in ("attempted", "failed", "correct")
            }
            entry["metrics"] = {}
            for metric in spec["end_to_end"]:
                name = metric["name"]
                claimed = claim == (workload, name)
                parent = [r["metrics"][name]["value"] for r in results["parent"]]
                change = [r["metrics"][name]["value"] for r in results["change"]]
                entry["metrics"][name] = summarize(
                    parent, change, metric["better"], metric["bound"], claimed)
                if claimed:
                    m = entry["metrics"][name]
                    sign = 1.0 if metric["better"] == "higher" else -1.0
                    bench["claim"] = {
                        "workload": workload, "metric": name, "unit": metric["unit"],
                        "wins": m["change_wins"], "pairs": m["pairs"],
                        "median_gap": sign * (m["change"]["median"] - m["parent"]["median"]),
                        "parent_iqr": m["parent"]["q3"] - m["parent"]["q1"],
                        "met": m["status"] == "claim met",
                    }
            bench["workloads"][workload] = entry
            out_path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
