"""Smoke test of ``tools/traffic.py``: one op of one workload, traced."""

from __future__ import annotations

import importlib.util
import inspect
import textwrap
from collections import defaultdict
from pathlib import Path

from loewner_lab import pi_synth

_PATH = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"
_spec = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def test_executable_lines_leave_out_def_raise_and_except_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent('''\
        X = 1


        def f(x):
            """Doc."""
            if x:
                raise ValueError(
                    "no"
                )
            try:
                y = 1 / x
            except ZeroDivisionError:
                y = 0
            return y


        class C:
            def g(self):
                return [v for v in range(3)]
        '''))
    assert traffic.executable_lines(path) == {6, 10, 11, 14, 19}


def test_one_pi_tune_op_reaches_the_tuner(tmp_path):
    reached = defaultdict(set)
    with traffic.traced(reached):
        traffic.run_workloads(1, 1, tmp_path, names=["pi_tune"])
    missing = traffic.unreached(reached)
    assert set(missing) == {p.name for p in traffic.PACKAGE.glob("*.py")}
    # Every executable line of optimize_pi runs in a successful op.
    lines, first = inspect.getsourcelines(pi_synth.optimize_pi)
    body = set(range(first, first + len(lines)))
    assert not body & set(missing["pi_synth.py"])
    assert body & traffic.executable_lines(traffic.PACKAGE / "pi_synth.py")
    # The tuner does not run the CLI.
    cli = traffic.executable_lines(traffic.PACKAGE / "cli.py")
    assert cli and set(missing["cli.py"]) == cli
    assert traffic.ranges([3, 4, 5, 9, 11, 12]) == [(3, 5), (9, 9), (11, 12)]
