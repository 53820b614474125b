"""Command-line front end for the identification and control pipelines.

Subcommands cover the full workflow: ``sample`` writes plant data,
``approximate`` fits a rational realization to measured data, ``lddc``
runs the data-driven controller reduction sweep, ``synth`` tunes a PI
controller against a realization, ``mfsa`` issues a stability verdict for
a transfer (optionally a delayed closed loop), and ``delay-sweep`` tags a
range of loop delays and emits Nyquist data.

Exit codes: 0 on success, 1 when a computation raises a domain error, 2 on
usage errors.  All numeric file output uses 17 significant digits so that
values round-trip exactly through text.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import loewner_core
from .descriptor_ops import (
    TransferMap,
    _check_delays,
    eval_transfer,
    load_realization,
    save_realization,
)
from .errors import LoewnerLabError
from .freq_data import FrequencyDataset, close_conjugate, load_csv, partition_points, save_csv
from .lddc import (
    closed_loop_reference,
    ideal_controller_response,
    reduce_controller,
    reference_from_dataset,
    second_order_reference,
    small_gain_bound,
)
from .loewner_core import build_pencil, detect_rank, reduce_to_realization
from .mfsa import delay_margin_sweep, loop_tag, nyquist_curve, stability_tag
from .pi_synth import PIController, default_weights, optimize_pi
from .plant_oracle import PlantParameters, eval_plant, sample_grid

__all__ = ["main"]

DEFAULT_GRID_N = 200
DEFAULT_WMIN = 2.0 * math.pi * 1e-2
DEFAULT_WMAX = 2.0 * math.pi


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _out_dir(args) -> Path:
    """The output directory, created on the first write, once the command's
    computation has succeeded, so a rejected command leaves nothing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _grid(args) -> np.ndarray:
    return sample_grid(args.grid_n, args.wmin, args.wmax).imag


def _plant_params(args) -> PlantParameters:
    return PlantParameters(omega0=args.omega0, damping=args.damping, x_m=args.x_m)


def _plant_map(args) -> TransferMap:
    if args.plant == "builtin":
        p = _plant_params(args)
        return TransferMap.from_callable(
            lambda s: eval_plant(p, p.x_m, s), label="transport plant"
        )
    rlz = load_realization(args.plant)
    return TransferMap.from_realization(rlz, label=str(args.plant))


def _add_grid_flags(sp) -> None:
    sp.add_argument("--grid-n", dest="grid_n", type=int, default=DEFAULT_GRID_N,
                    help="number of log-spaced grid points (default %(default)s)")
    sp.add_argument("--wmin", type=float, default=DEFAULT_WMIN,
                    help="lowest grid frequency, rad/s (default 2*pi/100)")
    sp.add_argument("--wmax", type=float, default=DEFAULT_WMAX,
                    help="highest grid frequency, rad/s (default 2*pi)")


def _add_plant_flags(sp) -> None:
    default = PlantParameters()
    sp.add_argument("--omega0", type=float, default=default.omega0,
                    help="actuator natural frequency (default %(default)s)")
    sp.add_argument("--damping", type=float, default=default.damping,
                    help="actuator damping coefficient (default %(default)s)")
    sp.add_argument("--x-m", dest="x_m", type=float, default=default.x_m,
                    help="measurement position along the domain (default %(default)s)")


def _add_verdict_flags(sp) -> None:
    sp.add_argument("--plant", default="builtin",
                    help="'builtin' or a realization JSON path")


def _add_out_flag(sp) -> None:
    sp.add_argument("--out", default=".", help="output directory (default: current)")


def cmd_sample(args) -> int:
    p = _plant_params(args)
    pts = sample_grid(args.grid_n, args.wmin, args.wmax)
    vals = eval_plant(p, p.x_m, pts)
    dataset = FrequencyDataset.from_arrays(pts, vals)
    path = _out_dir(args) / "plant.csv"
    save_csv(dataset, path)
    print(f"wrote {len(dataset)} samples to {path}")
    return 0


def _relative_residual(rlz, closed) -> float:
    phi = closed.values()
    approx = eval_transfer(rlz, closed.points())
    mag = np.abs(phi)
    mag[mag == 0.0] = 1.0
    return float(np.max(np.abs(approx - phi) / mag))


def cmd_approximate(args) -> int:
    closed = close_conjugate(load_csv(args.data))
    pencil = build_pencil(partition_points(closed))
    report = detect_rank(pencil)
    if not report.ranks_agree:
        print(
            f"rank mismatch between row stack ({report.rank_row}) and column "
            f"stack ({report.rank_col}); taking the larger",
            file=sys.stderr,
        )
    rlz = reduce_to_realization(pencil, report.rank if args.order is None else args.order)
    residual = _relative_residual(rlz, closed)
    out = _out_dir(args)
    save_realization(rlz, out / "realization.json")
    report_obj = {
        "order": rlz.order,
        "detected_rank": report.rank,
        "svd_tol": loewner_core.RANK_TOL,
        "max_relative_residual": residual,
    }
    (out / "residual_report.json").write_text(json.dumps(report_obj, indent=1) + "\n")
    print(
        f"order r = {rlz.order} (detected rank {report.rank}), "
        f"max relative residual = {residual:.3e}"
    )
    return 0


def _reference(args, dataset):
    if args.reference == "m1":
        return second_order_reference()
    if args.reference == "m2":
        rlz = reduce_to_realization(build_pencil(partition_points(dataset)), args.order)
        return closed_loop_reference(
            rlz, PIController(args.kp, args.ki).realization()
        )
    return reference_from_dataset(close_conjugate(load_csv(args.reference)))


def cmd_lddc(args) -> int:
    dataset = close_conjugate(load_csv(args.data))
    m_ref = _reference(args, dataset)
    gamma = small_gain_bound(dataset, m_ref)
    kstar = ideal_controller_response(dataset, m_ref)
    sweep = reduce_controller(kstar, range(1, args.max_order + 1), gamma_bound=gamma)
    inv = 1.0 / gamma if gamma > 0 else math.inf
    pick = sweep.pick()
    if pick.verdict == "stable":
        note = f"smallest certified-stable order {pick.order}"
    else:
        note = f"no order certified; lowest-error order {pick.order}"
    if pick.realization is None:
        raise LoewnerLabError("no controller realization could be built")
    out = _out_dir(args)
    _write_rows(
        out / "sweep.csv",
        "order,error,gamma_inverse,verdict",
        [(row.order, float(row.error), float(inv), row.verdict) for row in sweep.rows],
    )
    save_realization(pick.realization, out / "controller.json")
    print(f"{note} (relative grid error {pick.error_rel:.3e}, 1/gamma = {inv:.6g})")
    return 0


def cmd_synth(args) -> int:
    rlz = load_realization(args.realization)
    plant = TransferMap.from_realization(rlz, label=str(args.realization))
    grid = _grid(args)
    result = optimize_pi(
        plant, default_weights(), grid, start=PIController(args.kp, args.ki)
    )
    ctrl = result.controller
    obj = {
        "kp": ctrl.kp,
        "ki": ctrl.ki,
        "gamma": result.gamma,
        "stable": result.stable,
        "stability_checked": result.stability_checked,
    }
    sens = 1.0 / (1.0 + nyquist_curve(plant, ctrl.transfer_map(), grid))
    comp = 1.0 - sens
    out = _out_dir(args)
    (out / "pi.json").write_text(json.dumps(obj, indent=1) + "\n")
    save_csv(FrequencyDataset.from_arrays(1j * grid, sens), out / "sensitivity.csv")
    save_csv(FrequencyDataset.from_arrays(1j * grid, comp), out / "complementary.csv")
    print(
        f"kp = {ctrl.kp:.6g}, ki = {ctrl.ki:.6g}, gamma = {result.gamma:.6g}, "
        f"closed loop stable: {result.stable}"
    )
    return 0


def cmd_mfsa(args) -> int:
    plant = _plant_map(args)
    if args.controller is None:
        if args.tau:
            raise LoewnerLabError("--tau requires --controller")
        report = stability_tag(plant, _grid(args))
    else:
        k = TransferMap.from_realization(load_realization(args.controller))
        report = loop_tag(plant, k, args.tau, _grid(args))
    obj = {
        "stab_tag": _json_safe(report.stab_tag),
        "epsilon": report.epsilon,
        "verdict": report.verdict,
        "order": report.order,
        "peak_omega": _json_safe(report.peak_omega),
        "antistable_order": report.antistable_order,
        "detail": report.detail,
    }
    (_out_dir(args) / "stability_report.json").write_text(json.dumps(obj, indent=1) + "\n")
    tag = "none" if not math.isfinite(report.stab_tag) else f"{report.stab_tag:.6g}"
    print(f"verdict: {report.verdict} (stab_tag = {tag}, order = {report.order})")
    return 0


def cmd_delay_sweep(args) -> int:
    plant = _plant_map(args)
    k = TransferMap.from_realization(load_realization(args.controller))
    # Before linspace, which warns on an infinite bound; each on its own,
    # since equal bounds make a valid one-row sweep.
    _check_delays([args.tau_min])
    _check_delays([args.tau_max])
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_n)
    grid = _grid(args)
    result = delay_margin_sweep(plant, k, taus, grid)
    loop = nyquist_curve(plant, k, grid)
    ny_rows = [
        (float(w), float(v.real), float(v.imag), float(row.tau))
        for row in result.rows
        for w, v in zip(grid, loop * np.exp(-1j * grid * row.tau))
    ]
    out = _out_dir(args)
    _write_rows(
        out / "delay_sweep.csv",
        "tau_s,stab_tag,verdict",
        [(float(row.tau), float(row.stab_tag), row.verdict) for row in result.rows],
    )
    _write_rows(out / "nyquist.csv", "omega_rad_s,re,im,tau_s", ny_rows)
    margin = result.destabilizing_delay
    print(
        "destabilizing delay: "
        + (f"{margin:.6g} s" if margin is not None else "none found in range")
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewner-lab",
        description="Loewner-framework identification, data-driven control, "
        "and sampling-based stability analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="evaluate the built-in plant on a log grid")
    _add_grid_flags(sp)
    _add_plant_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("approximate", help="fit a rational realization to CSV data")
    sp.add_argument("data", help="input CSV (omega_rad_s,re,im)")
    sp.add_argument("--order", type=int, default=None,
                    help="force the realization order (default: detected rank)")
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_approximate)

    sp = sub.add_parser("lddc", help="data-driven controller reduction sweep")
    sp.add_argument("data", help="plant frequency data CSV")
    sp.add_argument("--reference", required=True,
                    help="reference model: 'm1', 'm2', or a CSV path on the same grid")
    sp.add_argument("--order", type=int, default=33,
                    help="approximant order used when --reference m2 (default 33)")
    sp.add_argument("--kp", type=float, default=0.191,
                    help="PI gain used when --reference m2")
    sp.add_argument("--ki", type=float, default=0.0252,
                    help="PI gain used when --reference m2")
    sp.add_argument("--max-order", type=int, default=20,
                    help="sweep orders 1..MAX (default 20)")
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_lddc)

    sp = sub.add_parser("synth", help="tune a PI controller against a realization")
    sp.add_argument("realization", help="plant realization JSON")
    sp.add_argument("--kp", type=float, default=0.1, help="start proportional gain")
    sp.add_argument("--ki", type=float, default=0.01, help="start integral gain")
    _add_grid_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_synth)

    sp = sub.add_parser("mfsa", help="stability verdict for a (delayed) transfer")
    _add_verdict_flags(sp)
    sp.add_argument("--controller", default=None,
                    help="controller realization JSON; omit to analyse the plant alone")
    sp.add_argument("--tau", type=float, default=0.0, help="loop delay, seconds")
    _add_grid_flags(sp)
    _add_plant_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_mfsa)

    sp = sub.add_parser("delay-sweep", help="stability tags over a range of delays")
    _add_verdict_flags(sp)
    sp.add_argument("--controller", required=True, help="controller realization JSON")
    sp.add_argument("--tau-min", type=float, default=4.6)
    sp.add_argument("--tau-max", type=float, default=5.5)
    sp.add_argument("--tau-n", type=int, default=20)
    _add_grid_flags(sp)
    _add_plant_flags(sp)
    _add_out_flag(sp)
    sp.set_defaults(fn=cmd_delay_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LoewnerLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
