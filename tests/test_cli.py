"""End-to-end command-line checks on small grids.

Each test drives ``main`` in-process and inspects the artifacts written to
a temp directory, including exit codes for usage and domain errors.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import loewner_lab
from helpers import modal_realization
from loewner_lab import cli, lddc
from loewner_lab.cli import main
from loewner_lab.descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    load_realization,
    realization_to_json,
    save_realization,
)
from loewner_lab.freq_data import CSV_HEADER, FrequencyDataset, save_csv
from loewner_lab.loewner_core import RANK_TOL
from loewner_lab.mfsa import STABILITY_EPSILON, delay_margin_sweep, nyquist_curve
from loewner_lab.pi_synth import PIController
from loewner_lab.plant_oracle import PlantParameters, eval_plant, sample_grid


def read_lines(path):
    return path.read_text().strip().split("\n")


@pytest.fixture()
def plant_csv(tmp_path):
    assert main(["sample", "--grid-n", "60", "--out", str(tmp_path)]) == 0
    return tmp_path / "plant.csv"


class TestSample:
    def test_writes_csv_with_schema(self, tmp_path, capsys):
        rc = main(["sample", "--grid-n", "50", "--out", str(tmp_path)])
        assert rc == 0
        lines = read_lines(tmp_path / "plant.csv")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 51
        first = float(lines[1].split(",")[0])
        assert first == pytest.approx(2 * np.pi * 1e-2)
        last = float(lines[-1].split(",")[0])
        assert last == pytest.approx(2 * np.pi)
        assert "wrote 50 samples" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["sample", "--grid-n", "40", "--out", str(a)]) == 0
        assert main(["sample", "--grid-n", "40", "--out", str(b)]) == 0
        assert (a / "plant.csv").read_bytes() == (b / "plant.csv").read_bytes()


    def test_infinite_wmax_is_rejected(self, tmp_path, capsys):
        rc = main(["sample", "--wmax", "inf", "--out", str(tmp_path)])
        assert rc == 1
        assert "w_max < inf" in capsys.readouterr().err
        assert not (tmp_path / "plant.csv").exists()


class TestStartUp:
    def test_no_command_loads_scipy_optimize(self, tmp_path):
        # A fresh interpreter: this process has long since imported it.
        out = str(tmp_path)
        code = f"""
import sys
import numpy as np
from loewner_lab import cli
from loewner_lab.descriptor_ops import DescriptorRealization, TransferMap
from loewner_lab.pi_synth import PIController, default_weights, optimize_pi
out = {out!r}
assert cli.main(["sample", "--grid-n", "60", "--out", out]) == 0
assert cli.main(["approximate", out + "/plant.csv", "--order", "8", "--out", out]) == 0
assert cli.main(["synth", out + "/realization.json", "--grid-n", "40", "--out", out]) == 0
assert cli.main(["lddc", out + "/plant.csv", "--reference", "m1", "--max-order", "3",
                 "--out", out]) == 0
assert cli.main(["mfsa", "--plant", out + "/realization.json", "--grid-n", "60",
                 "--out", out]) == 0
assert cli.main(["delay-sweep", "--controller", out + "/controller.json", "--tau-n", "2",
                 "--grid-n", "60", "--out", out]) == 0
one = np.array([[1.0]])
plant = TransferMap.from_realization(DescriptorRealization(E=one, A=-one, B=one, C=one, D=0.0))
res = optimize_pi(plant, default_weights(), np.geomspace(1e-2, 1e2, 30), PIController(0.5, 0.1))
assert res.stable and res.feasible_candidates > 0
assert "scipy.optimize" not in sys.modules
"""
        src = str(Path(loewner_lab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pi.json").exists()


class TestApproximate:
    def test_fit_and_residual_report(self, tmp_path, plant_csv, capsys):
        out = tmp_path / "fit"
        rc = main(["approximate", str(plant_csv), "--out", str(out)])
        assert rc == 0
        rlz = load_realization(out / "realization.json")
        report = json.loads((out / "residual_report.json").read_text())
        assert report["order"] == rlz.order == report["detected_rank"]
        assert report["max_relative_residual"] < 1e-6
        assert "max relative residual" in capsys.readouterr().out

    def test_forced_order(self, tmp_path, plant_csv):
        out = tmp_path / "fit8"
        rc = main(["approximate", str(plant_csv), "--order", "8", "--out", str(out)])
        assert rc == 0
        assert load_realization(out / "realization.json").order == 8

    def test_rank_mismatch_is_printed(self, tmp_path, capsys):
        # A design-workload plant variant whose row and column stacks
        # disagree on the paper grid; the report carries it and the CLI
        # prints it, while the fit takes the larger count.
        assert main([
            "sample", "--omega0", "3.7521354008029983", "--damping", "0.49904868219538884",
            "--x-m", "2.1144327329554717", "--out", str(tmp_path),
        ]) == 0
        out = tmp_path / "fit"
        assert main(["approximate", str(tmp_path / "plant.csv"), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err == (
            "rank mismatch between row stack (35) and column stack (36); taking the larger\n"
        )
        report = json.loads((out / "residual_report.json").read_text())
        assert report["order"] == report["detected_rank"] == 36
        assert report["max_relative_residual"] < 1e-6


class TestLddc:
    def test_sweep_and_controller_artifacts(self, tmp_path, plant_csv, capsys):
        out = tmp_path / "lddc"
        rc = main([
            "lddc", str(plant_csv), "--reference", "m1",
            "--max-order", "6", "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out / "sweep.csv")
        assert lines[0] == "order,error,gamma_inverse,verdict"
        assert len(lines) == 7
        verdicts = {line.split(",")[3] for line in lines[1:]}
        assert verdicts <= {"stable", "inconclusive", "failed"}
        assert load_realization(out / "controller.json").order >= 1
        assert "order" in capsys.readouterr().out

    def test_outputs_repeat_across_interpreters(self, tmp_path):
        # The sweep's sketch draws from a generator of its own with a fixed
        # seed, so two fresh processes write the same bytes.
        assert main(["sample", "--out", str(tmp_path)]) == 0
        code = """
import sys
from loewner_lab import cli
data, out = sys.argv[1:]
for ref in ("m1", "m2"):
    assert cli.main(["lddc", data, "--reference", ref, "--out", out + "/" + ref]) == 0
"""
        src = str(Path(loewner_lab.__file__).resolve().parent.parent)
        for run in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "plant.csv"), str(tmp_path / run)],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        for ref in ("m1", "m2"):
            for name in ("sweep.csv", "controller.json"):
                a, b = (tmp_path / run / ref / name for run in ("a", "b"))
                assert a.read_bytes() == b.read_bytes(), (ref, name)

    def test_reference_table_from_csv(self, tmp_path, capsys):
        # m1 handed over as samples on the paper grid gives the same files
        # as --reference m1: the 17-digit CSV round trip is exact.
        from loewner_lab.freq_data import load_csv
        from loewner_lab.lddc import second_order_reference

        assert main(["sample", "--out", str(tmp_path)]) == 0
        plant_csv = tmp_path / "plant.csv"
        data = load_csv(plant_csv)
        mvals = np.asarray(second_order_reference()(data.points()), dtype=complex)
        ref_csv = tmp_path / "reference.csv"
        save_csv(FrequencyDataset.from_arrays(data.points(), mvals), ref_csv)
        for ref, out in ((str(ref_csv), "table"), ("m1", "m1")):
            rc = main(["lddc", str(plant_csv), "--reference", ref, "--out", str(tmp_path / out)])
            assert rc == 0
        assert capsys.readouterr().out.count("certified-stable order 13 ") == 2
        for name in ("sweep.csv", "controller.json"):
            assert (tmp_path / "table" / name).read_bytes() == (tmp_path / "m1" / name).read_bytes()

    @pytest.mark.parametrize(
        "max_order, certified",
        [(["--max-order", "5"], False), ([], True)],
        ids=["max-order-5", "default-max-order"],
    )
    def test_summary_prints_the_error_the_verdict_compares(
        self, tmp_path, capsys, max_order, certified
    ):
        # An order is certified when its relative grid error is below
        # 1/gamma, so the summary prints that error next to 1/gamma.
        assert main(["sample", "--out", str(tmp_path)]) == 0
        out = tmp_path / "lddc"
        rc = main([
            "lddc", str(tmp_path / "plant.csv"), "--reference", "m1",
            *max_order, "--out", str(out),
        ])
        assert rc == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        match = re.fullmatch(r"(.*) \((.*grid error) (\S+), 1/gamma = (\S+)\)", line)
        assert match, line
        note, label, err, inv = match[1], match[2], float(match[3]), float(match[4])
        verdicts = [row.split(",")[3] for row in read_lines(out / "sweep.csv")[1:]]
        assert ("stable" in verdicts) == certified
        assert note.startswith("smallest certified-stable order") == certified
        assert (err < inv) == certified
        assert label == "relative grid error"

    def test_no_realization_is_an_error_and_leaves_no_out_directory(
        self, tmp_path, plant_csv, capsys, monkeypatch
    ):
        real = lddc._sweep_candidates

        def all_singular(partition, r):
            # Every candidate's pencil (E, A) is zero, so its QZ raises.
            return [
                DescriptorRealization(np.zeros_like(q.E), np.zeros_like(q.A), q.B, q.C)
                for q in real(partition, r)
            ]

        monkeypatch.setattr(lddc, "_sweep_candidates", all_singular)
        capsys.readouterr()
        out = tmp_path / "lddc"
        rc = main([
            "lddc", str(plant_csv), "--reference", "m1", "--max-order", "4", "--out", str(out),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: no controller realization could be built\n"
        assert not out.exists()

    def test_missing_data_leaves_no_out_directory(self, tmp_path):
        out = tmp_path / "lddc"
        rc = main([
            "lddc", str(tmp_path / "missing.csv"), "--reference", "m1", "--out", str(out),
        ])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("row, message", [
        ("1.0,2.0", "line 3: expected 3 fields, got 2"),
        ("1.0,oops,0", "line 3: field 're' is not a number: 'oops'"),
        ("1.0,nan,0", "non-finite response value"),
    ])
    def test_a_bad_reference_row_names_the_reference_file(self, tmp_path, capsys, row, message):
        assert main(["sample", "--out", str(tmp_path)]) == 0
        plant_csv, bad = tmp_path / "plant.csv", tmp_path / "bad.csv"
        bad.write_text(f"omega_rad_s,re,im\n0.5,1.0,0.0\n{row}\n")
        capsys.readouterr()
        out = tmp_path / "lddc"
        rc = main(["lddc", str(plant_csv), "--reference", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert str(plant_csv) not in err
        assert not out.exists()


class TestSynth:
    def test_pi_json_and_sensitivity_curves(self, tmp_path, capsys):
        rlz_path = tmp_path / "plant.json"
        save_realization(modal_realization([], [(-1.0, 1.0)]), rlz_path)
        out = tmp_path / "synth"
        rc = main([
            "synth", str(rlz_path), "--grid-n", "40",
            "--wmin", "1e-3", "--wmax", "1e3", "--out", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "pi.json").read_text())
        assert set(obj) >= {"kp", "ki", "gamma", "stable"}
        assert obj["gamma"] > 0
        assert obj["stable"] is True
        for name in ("sensitivity.csv", "complementary.csv"):
            lines = read_lines(out / name)
            assert lines[0] == "omega_rad_s,re,im"
            assert len(lines) == 41
        sens = np.array(
            [[float(x) for x in ln.split(",")] for ln in
             read_lines(out / "sensitivity.csv")[1:]]
        )
        comp = np.array(
            [[float(x) for x in ln.split(",")] for ln in
             read_lines(out / "complementary.csv")[1:]]
        )
        # S + T = 1 pointwise by construction.
        assert np.allclose(sens[:, 1] + comp[:, 1], 1.0, atol=1e-12)
        assert np.allclose(sens[:, 2] + comp[:, 2], 0.0, atol=1e-12)
        assert "gamma" in capsys.readouterr().out


    def test_infinite_wmax_is_rejected(self, tmp_path, capsys):
        rlz_path = tmp_path / "plant.json"
        save_realization(modal_realization([], [(-1.0, 1.0)]), rlz_path)
        out = tmp_path / "synth"
        rc = main(["synth", str(rlz_path), "--wmax", "inf", "--out", str(out)])
        assert rc == 1
        assert "w_max < inf" in capsys.readouterr().err
        assert not (out / "pi.json").exists()


class TestMfsa:
    def test_stable_realization_verdict(self, tmp_path):
        rlz_path = tmp_path / "stable.json"
        save_realization(modal_realization([(-0.5 + 2.0j, 1.0)], []), rlz_path)
        out = tmp_path / "mfsa"
        rc = main([
            "mfsa", "--plant", str(rlz_path), "--grid-n", "40",
            "--wmin", "0.01", "--wmax", "100", "--out", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "stability_report.json").read_text())
        assert obj["verdict"] == "stable"
        assert obj["stab_tag"] == 0.0

    def test_unstable_realization_verdict(self, tmp_path):
        rlz_path = tmp_path / "unstable.json"
        save_realization(modal_realization([], [(1.0, 1.0)]), rlz_path)
        out = tmp_path / "mfsa"
        rc = main([
            "mfsa", "--plant", str(rlz_path), "--grid-n", "40",
            "--wmin", "0.01", "--wmax", "100", "--out", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "stability_report.json").read_text())
        assert obj["verdict"] == "unstable"
        assert obj["stab_tag"] > 0.9

    def test_delayed_loop_matches_the_sweep_row(self, tmp_path):
        # mfsa --tau and delay-sweep must sample the delayed loop on the
        # same densified grid, so they reach the same verdict.
        plant = modal_realization([], [(-1.0, 2.0)])
        ctrl = modal_realization([], [], feedthrough=2.0)
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(plant, plant_path)
        save_realization(ctrl, ctrl_path)
        out = tmp_path / "mfsa"
        rc = main([
            "mfsa", "--plant", str(plant_path), "--controller", str(ctrl_path),
            "--tau", "1.0", "--grid-n", "40", "--wmin", "0.05", "--wmax", "20",
            "--out", str(out),
        ])
        assert rc == 0
        obj = json.loads((out / "stability_report.json").read_text())
        row = delay_margin_sweep(
            plant.transfer_map(), ctrl.transfer_map(), [1.0],
            sample_grid(40, 0.05, 20.0).imag,
        ).rows[0]
        assert obj["verdict"] == row.verdict == "unstable"
        assert obj["order"] == row.order
        assert obj["stab_tag"] == row.stab_tag

    def test_tau_without_controller_is_a_domain_error(self, tmp_path):
        rc = main(["mfsa", "--tau", "1.0", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_is_rejected(self, tmp_path, capsys, epsilon):
        rlz_path = tmp_path / "stable.json"
        save_realization(modal_realization([], [(-1.0, 1.0)]), rlz_path)
        out = tmp_path / "mfsa"
        rc = main([
            "mfsa", "--plant", str(rlz_path), "--grid-n", "40",
            "--epsilon", epsilon, "--out", str(out),
        ])
        assert rc == 1
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_delay_is_named(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), plant_path)
        save_realization(modal_realization([], [], feedthrough=1.0), ctrl_path)
        out = tmp_path / "mfsa"
        rc = main([
            "mfsa", "--plant", str(plant_path), "--controller", str(ctrl_path),
            "--tau", "nan", "--grid-n", "40", "--out", str(out),
        ])
        assert rc == 1
        assert "bad delay nan: delays must be finite" in capsys.readouterr().err
        assert not out.exists()


    def test_infinite_delay_is_named_without_warnings(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), plant_path)
        save_realization(modal_realization([], [], feedthrough=1.0), ctrl_path)
        out = tmp_path / "mfsa"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "mfsa", "--plant", str(plant_path), "--controller", str(ctrl_path),
                "--tau", "inf", "--grid-n", "40", "--out", str(out),
            ])
        assert rc == 1
        assert caught == []
        assert "bad delay inf: delays must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestDelaySweep:
    def test_rows_and_nyquist_artifacts(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), plant_path)
        save_realization(
            modal_realization([], [], feedthrough=1.0), ctrl_path
        )
        out = tmp_path / "sweep"
        rc = main([
            "delay-sweep", "--plant", str(plant_path),
            "--controller", str(ctrl_path),
            "--tau-min", "0.8", "--tau-max", "1.5", "--tau-n", "3",
            "--grid-n", "30", "--wmin", "0.05", "--wmax", "20",
            "--out", str(out),
        ])
        assert rc == 0
        sweep = read_lines(out / "delay_sweep.csv")
        assert sweep[0] == "tau_s,stab_tag,verdict"
        assert len(sweep) == 4
        assert sweep[1].split(",")[2] == "stable"
        assert sweep[3].split(",")[2] == "unstable"
        ny = read_lines(out / "nyquist.csv")
        assert ny[0] == "omega_rad_s,re,im,tau_s"
        assert len(ny) == 1 + 3 * 30
        assert "destabilizing delay" in capsys.readouterr().out

    def test_nan_delay_is_rejected(self, tmp_path, capsys):
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), plant_path)
        save_realization(modal_realization([], [], feedthrough=1.0), ctrl_path)
        out = tmp_path / "sweep"
        rc = main([
            "delay-sweep", "--plant", str(plant_path), "--controller", str(ctrl_path),
            "--tau-min", "nan", "--tau-max", "5", "--tau-n", "3",
            "--grid-n", "30", "--out", str(out),
        ])
        assert rc == 1
        assert "bad delay nan: delays must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["--tau-min", "--tau-max"])
    def test_infinite_delay_bound_is_rejected_without_warnings(self, tmp_path, capsys, bound):
        plant_path = tmp_path / "plant.json"
        ctrl_path = tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), plant_path)
        save_realization(modal_realization([], [], feedthrough=1.0), ctrl_path)
        out = tmp_path / "sweep"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "delay-sweep", "--plant", str(plant_path), "--controller", str(ctrl_path),
                bound, "inf", "--tau-n", "3", "--grid-n", "30", "--out", str(out),
            ])
        assert rc == 1
        assert caught == []
        assert "bad delay inf: delays must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nyquist_loop_is_evaluated_once(self, tmp_path, monkeypatch):
        # Each row of nyquist.csv is the delay-free loop times e^{-i omega tau};
        # the plant is evaluated on the Nyquist grid once, not once per row.
        sizes = []

        def counted(p, x, s):
            sizes.append(np.size(s))
            return eval_plant(p, x, s)

        monkeypatch.setattr(cli, "eval_plant", counted)
        ctrl_path = tmp_path / "pi.json"
        save_realization(PIController(kp=0.191, ki=0.0252).realization(), ctrl_path)
        out = tmp_path / "sweep"
        rc = main(["delay-sweep", "--controller", str(ctrl_path), "--tau-n", "3",
                   "--out", str(out)])
        assert rc == 0
        assert sizes.count(200) == 1
        grid = sample_grid(200, 2.0 * np.pi * 1e-2, 2.0 * np.pi).imag
        ny = np.loadtxt(out / "nyquist.csv", delimiter=",", skiprows=1)
        assert ny.shape == (3 * 200, 4)
        p = PlantParameters()
        plant = TransferMap.from_callable(lambda s: eval_plant(p, p.x_m, s))
        k = TransferMap.from_realization(load_realization(ctrl_path))
        for tau, rows in zip(np.linspace(4.6, 5.5, 3), np.split(ny, 3)):
            curve = nyquist_curve(plant, k, grid) * np.exp(-1j * grid * tau)
            assert np.array_equal(rows[:, 0], grid)
            assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], curve)
            assert np.all(rows[:, 3] == tau)


class TestSharedFlags:
    def test_commands_sharing_a_flag_parse_the_same_default(self):
        parser = cli.build_parser()
        verdicts = [
            parser.parse_args(["mfsa"]),
            parser.parse_args(["delay-sweep", "--controller", "k.json"]),
        ]
        assert parser.parse_args(["approximate", "plant.csv"]).svd_tol == RANK_TOL
        assert [(a.plant, a.epsilon) for a in verdicts] == [
            ("builtin", STABILITY_EPSILON), ("builtin", STABILITY_EPSILON)
        ]

    def test_lddc_takes_no_svd_tol(self):
        # lddc reads no rank: its m2 fit is projected at --order.
        with pytest.raises(SystemExit) as exc:
            main(["lddc", "plant.csv", "--reference", "m2", "--svd-tol", "1e-8"])
        assert exc.value.code == 2


class TestNonFiniteRealization:
    """A realization JSON holding NaN is rejected as it is loaded, naming
    the file and the matrix, before anything is sampled or written."""

    @pytest.mark.parametrize("command", ["synth", "mfsa", "delay-sweep"])
    def test_is_named_without_warnings(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        obj = realization_to_json(modal_realization([], [(-1.0, 2.0)]))
        obj["A"][0][0] = float("nan")
        bad.write_text(json.dumps(obj))
        out = tmp_path / "out"
        argv = {
            "synth": ["synth", str(bad)],
            "mfsa": ["mfsa", "--plant", str(bad)],
            "delay-sweep": ["delay-sweep", "--controller", str(bad)],
        }[command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--grid-n", "20", "--out", str(out)])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "A has a non-finite entry nan" in err
        assert not out.exists()


class TestBadRealizationFile:
    """Every failure to load a realization names the file it came from."""

    @pytest.mark.parametrize("fault, message", [
        ("singular", "pencil (E, A) is singular: a 0/0 generalized eigenvalue"),
        ("shape", "cannot reshape"),
    ])
    def test_the_bad_file_is_named(self, tmp_path, capsys, fault, message):
        good = tmp_path / "plant.json"
        save_realization(modal_realization([], [(-1.0, 2.0)]), good)
        obj = realization_to_json(modal_realization([], [(-1.0, 2.0)]))
        if fault == "singular":
            obj["E"], obj["A"] = [[0.0]], [[0.0]]
        else:
            obj["B"] = [[1.0], [2.0]]
        bad = tmp_path / "controller.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "out"
        rc = main(["mfsa", "--plant", str(good), "--controller", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err
        assert str(good) not in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_input_file_is_domain_error(self, tmp_path):
        rc = main(["approximate", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1

    def test_zero_data_is_domain_error(self, tmp_path):
        z = 1j * np.geomspace(0.1, 1.0, 4)
        ds = FrequencyDataset.from_arrays(z, np.zeros(4, dtype=complex))
        path = tmp_path / "zeros.csv"
        save_csv(ds, path)
        rc = main(["approximate", str(path), "--out", str(tmp_path)])
        assert rc == 1

    def test_header_only_csv_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(CSV_HEADER) + "\n")
        rc = main(["approximate", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
