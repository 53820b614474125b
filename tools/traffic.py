"""Which lines of the library the benchmark traffic and the CLI chain reach.

Usage, from the root of the repository:

    python3 tools/traffic.py [--ops 3] [--seed 1]

Runs ``--ops`` operations of each workload of ``perfbench/workloads.py``
(``run`` and ``check``, as ``perfbench/run.py`` does, untraced by the
benchmark's own tracer) and then the CLI chain ``sample`` ->
``approximate`` -> ``lddc`` m1 and m2 -> ``synth`` -> ``mfsa`` (the plant
alone, the fit with the m1 controller, the built-in plant with the m2
controller at ``--tau 4.0``) -> ``delay-sweep``, in a temporary directory,
all in this process under ``sys.settrace``.  Then it prints, per module of
``src/loewner_lab``, the executable lines inside functions that no run
reached, as line ranges with the first line's text.

Lines inside ``raise`` statements and ``except`` handlers are left out:
error paths are for the tests to reach, not the traffic.  Module and class
bodies are left out too, since they run on every import.  A function's
executable lines are the lines its byte code lists (``co_lines``), less
its ``def`` line.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loewner_lab"

for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """Lines of the functions in ``path`` that carry byte code, less the
    lines of ``raise`` statements and ``except`` handlers.  A function's
    own first line (its ``def`` or first decorator) raises no line event,
    so it counts only where an enclosing function has code on it, as for
    a lambda or a comprehension."""
    source = path.read_text()
    optimized = 0x0001  # CO_OPTIMIZED: set on functions, not on module or class bodies
    lines = {
        line
        for code in _code_objects(compile(source, str(path), "exec"))
        if code.co_flags & optimized
        for _, _, line in code.co_lines()
        if line and line != code.co_firstlineno
    }
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


@contextlib.contextmanager
def traced(reached: dict[str, set[int]]):
    """Record into ``reached`` the line of every line event in the package,
    by the module's resolved path."""
    modules: dict[str, str | None] = {}  # co_filename -> resolved path, None if not ours

    def module(code) -> str | None:
        name = code.co_filename
        if name not in modules:
            path = Path(name).resolve()
            modules[name] = str(path) if path.parent == PACKAGE else None
        return modules[name]

    def local(frame, event, arg):
        if event == "line":
            reached[module(frame.f_code)].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if module(frame.f_code) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield reached
    finally:
        sys.settrace(previous)


def run_workloads(ops: int, seed: int, workdir: Path, names=None) -> None:
    """``ops`` operations of each named workload (of every workload when
    ``names`` is None), each run and checked; raises if an operation's
    check reports a problem."""
    from tracing import NULL
    from workloads import WORKLOADS

    for name in WORKLOADS if names is None else names:
        wl = WORKLOADS[name](seed, workdir)
        for i in range(ops):
            inp = wl.make_input(i)
            problems = wl.check(inp, wl.run(inp, NULL))
            if problems:
                raise RuntimeError(f"{name} op {i}: {problems}")


CHAIN = (
    "sample --out {d}/data",
    "approximate {d}/data/plant.csv --out {d}/fit",
    "lddc {d}/data/plant.csv --reference m1 --out {d}/m1",
    "lddc {d}/data/plant.csv --reference m2 --out {d}/m2",
    "synth {d}/fit/realization.json --out {d}/pi",
    "mfsa --out {d}/mfsa-plant",
    "mfsa --plant {d}/fit/realization.json --controller {d}/m1/controller.json "
    "--out {d}/mfsa-fit",
    "mfsa --controller {d}/m2/controller.json --tau 4.0 --out {d}/mfsa-tau",
    "delay-sweep --controller {d}/m1/controller.json --tau-n 5 --out {d}/sweep",
)


def run_chain(workdir: Path) -> None:
    """The CLI chain, writing under ``workdir``; raises on a nonzero exit
    code."""
    from loewner_lab.cli import main

    for command in CHAIN:
        argv = command.format(d=workdir).split()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited with {rc}")


def unreached(reached: dict[str, set[int]]) -> dict[str, list[int]]:
    """Per module file name, the sorted executable lines not in ``reached``."""
    return {
        path.name: sorted(executable_lines(path) - reached.get(str(path), set()))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def ranges(lines: list[int]) -> list[tuple[int, int]]:
    """Consecutive runs of sorted line numbers, as (first, last) pairs."""
    out: list[tuple[int, int]] = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1] = (out[-1][0], line)
        else:
            out.append((line, line))
    return out


def report(missing: dict[str, list[int]]) -> str:
    text = []
    for name, lines in missing.items():
        total = len(executable_lines(PACKAGE / name))
        text.append(f"{name}: {len(lines)} of {total} executable lines not reached")
        source = (PACKAGE / name).read_text().splitlines()
        for first, last in ranges(lines):
            span = f"{first}" if first == last else f"{first}-{last}"
            text.append(f"  {span:>9}  {source[first - 1].strip()}")
    return "\n".join(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--ops", type=int, default=3, help="ops per workload (default 3)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    reached: dict[str, set[int]] = defaultdict(set)
    # The library is first imported under the tracer, so the functions
    # that run on import count as reached.
    with tempfile.TemporaryDirectory() as tmp, traced(reached):
        run_workloads(args.ops, args.seed, Path(tmp))
        run_chain(Path(tmp))
    print(report(unreached(reached)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
