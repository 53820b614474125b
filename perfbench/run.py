"""loewner_lab benchmark: one closed-loop client, one operation at a time.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads are ``design``, ``pi_tune`` and ``delay_sweep`` (see
workloads.py and METRICS.md).  The library is imported from ``src/`` next
to this directory and runs with its defaults; no thread setting is
changed.  The untraced run (``--trace 0``) reports the end-to-end
metrics; it runs in three fresh interpreters in turn, each setting the
workload up and measuring for a third of ``--seconds``.  The traced run
(``--trace 1``) runs in this process, runs each input once traced and
once untraced, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Details, machine facts and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PARTS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
WORKLOAD_NAMES = ("design", "pi_tune", "delay_sweep")


def import_library() -> float:
    """Import loewner_lab from this checkout's src/; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import loewner_lab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import loewner_lab from {src}: {exc}")
    elapsed = time.perf_counter() - start
    if src not in Path(loewner_lab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: loewner_lab came from {loewner_lab.__file__}, not {src}")
    return elapsed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("LOEWNER_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def execute(wl, inp, tracer) -> tuple[float, list[str]]:
    """Run one op; return its latency and the problems its output has."""
    start = time.perf_counter()
    try:
        out = wl.run(inp, tracer)
    except Exception:
        return time.perf_counter() - start, [traceback.format_exc(limit=3)]
    latency = time.perf_counter() - start
    try:
        return latency, wl.check(inp, out)
    except Exception:
        return latency, [traceback.format_exc(limit=3)]


def measure(wl, seconds: float, first: int = 0, step: int = 1) -> dict:
    """Untraced closed loop over ops first, first + step, ...: start ops
    until ``seconds`` have passed, and at least ``wl.min_ops`` of them."""
    from tracing import NULL

    latencies, problems = [], []
    start = time.perf_counter()
    while len(latencies) < wl.min_ops or time.perf_counter() - start < seconds:
        latency, bad = execute(wl, wl.make_input(first + step * len(latencies)), NULL)
        latencies.append(latency)
        problems.append(bad)
    return {"wall": time.perf_counter() - start, "latencies": latencies, "problems": problems}


def measure_traced(wl, seconds: float) -> dict:
    """Each input runs traced and untraced, in alternating order."""
    from tracing import NULL, Tracer, per_layer

    tracer = Tracer()
    problems, diffs = [], []
    start = time.perf_counter()
    i = 0
    while i < wl.min_ops or time.perf_counter() - start < seconds:
        inp = wl.make_input(i)
        latency = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.op(i):
                    latency[traced], bad = execute(wl, inp, tracer)
            else:
                latency[traced], bad = execute(wl, inp, NULL)
            problems.append(bad)
        diffs.append(latency[True] - latency[False])
        i += 1
    return {
        "problems": problems,
        "tracer": tracer,
        "per_layer": per_layer(tracer, wl.min_ops, statistics.median(diffs)),
        "pairs": len(diffs),
    }


def tail(latencies: list[float]):
    """Highest listed percentile with at least 10 ops beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def set_up(args):
    """Import the library and build the workload; return it and the seconds taken."""
    import_s = import_library()
    import workloads

    start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / "work")
    setup_s = import_s + time.perf_counter() - start
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    return wl, setup_s


def run_part(args) -> int:
    """One part of an untraced run, in its own interpreter: set up, measure."""
    wl, setup_s = set_up(args)
    result = measure(wl, args.seconds, first=args.part, step=PARTS)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["facts"] = machine_facts()
    print(json.dumps(result))
    return 0


def run_self(*argv: str, timeout: float) -> subprocess.CompletedProcess:
    """Run this script in a fresh interpreter and wait for it."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def run_parts(args) -> list[dict]:
    """Run the parts of an untraced run one after another.

    On a shared 2-CPU machine the speed of the pool-bound workloads drifts
    between processes more than it varies within one, so a run samples
    several processes: on delay_sweep this halved the spread of op_p50_s
    across seeds.  Part j runs ops j, j + PARTS, ... for an equal share of
    the run's seconds.
    """
    parts = []
    for j in range(PARTS):
        proc = run_self("--part", str(j), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
                        timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: part {j} exited with {proc.returncode}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    return parts


def run_all(args) -> int:
    """Run each workload in its own process and print all their metrics."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOAD_NAMES:
        proc = run_self("--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if args.part is not None:
        return run_part(args)

    if args.trace:
        wl, _ = set_up(args)
        facts = machine_facts()
        run = measure_traced(wl, args.seconds)
        metrics = run["per_layer"]
        notes = {"trace.overhead_s": f"median of {run['pairs']} traced-minus-untraced pairs",
                 "op_tail_s": "not measured in the traced run"}
    else:
        parts = run_parts(args)
        facts = parts[0]["facts"]
        run = {key: [x for part in parts for x in part[key]] for key in ("latencies", "problems")}
        lat = run["latencies"]
        done = sum(not bad for bad in run["problems"])
        wall = sum(part["wall"] for part in parts)
        setups = [part["setup_s"] for part in parts]
        rss = [part["peak_rss_mb"] for part in parts]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (done / wall, "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
        notes = {
            "setup_s": "median of set-ups in fresh interpreters: "
                       + ", ".join(f"{s:.3f}" for s in setups),
            "ops_per_s": f"{done} ops in {wall:.2f} s over {PARTS} processes, "
                         "200-point paper grid",
            "op_p50_s": f"{len(lat)} ops",
            "peak_rss_mb": "highest of per-process peaks: " + ", ".join(f"{r:.1f}" for r in rss),
        }
    problems = run["problems"]
    attempted, failed = len(problems), sum(bool(bad) for bad in problems)
    shown = dict(metrics)
    shown["fail_ratio"] = (failed / attempted, "ratio")
    notes["fail_ratio"] = f"{failed} of {attempted} ops failed an output check or raised"
    if not args.trace:
        tail_at = tail(run["latencies"])
        if tail_at is None:
            notes["op_tail_s"] = f"undefined: {attempted} ops leave fewer than 10 beyond p75"
        else:
            p, value, beyond = tail_at
            shown["op_tail_s"] = (value, "s")
            notes["op_tail_s"] = f"p{p:g}, {beyond} of {attempted} ops beyond it"

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    if "op_tail_s" not in shown:
        print(f"  {'op_tail_s':28s} {'-':>14s} {'s':6s} {notes['op_tail_s']}")
    for k, bad in enumerate(problems):
        if bad:
            print(f"  op {k} failed: " + " | ".join(b.strip() for b in bad))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"args": vars(args), "facts": facts, "metrics": shown, "notes": notes,
              "problems": problems}
    if args.trace:
        run["tracer"].write(OUT / f"{stem}-spans.jsonl")
    else:
        report["latencies"] = run["latencies"]
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
