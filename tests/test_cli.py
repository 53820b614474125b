"""End-to-end command-line checks on small grids.

Each test drives ``main`` in-process and inspects the artifacts written to
a temp directory, including exit codes for usage and domain errors.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import modal_realization
from loewner_lab import cli
from loewner_lab.cli import main
from loewner_lab.descriptor_ops import TransferMap, load_realization, save_realization
from loewner_lab.freq_data import CSV_HEADER, FrequencyDataset, save_csv
from loewner_lab.mfsa import delay_margin_sweep, nyquist_curve
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

    def test_reference_table_from_csv(self, tmp_path, plant_csv):
        # Reference handed over as samples on the same grid.
        from loewner_lab.freq_data import load_csv
        from loewner_lab.lddc import second_order_reference

        data = load_csv(plant_csv)
        m = second_order_reference()
        mvals = np.asarray(m.transfer(data.points()), dtype=complex)
        ref_csv = tmp_path / "reference.csv"
        save_csv(FrequencyDataset.from_arrays(data.points(), mvals), ref_csv)
        out = tmp_path / "lddc_csv"
        rc = main([
            "lddc", str(plant_csv), "--reference", str(ref_csv),
            "--max-order", "4", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "sweep.csv").exists()


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
            curve = nyquist_curve(plant, k, tau, grid)
            assert np.array_equal(rows[:, 0], grid)
            assert np.array_equal(rows[:, 1] + 1j * rows[:, 2], curve)
            assert np.all(rows[:, 3] == tau)


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
