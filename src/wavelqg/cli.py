"""Command-line interface.

Subcommands: synth, verify, sweep, simulate, report.  Parameters are given
either as the dimensionless groups (--pi1 .. --pi4, --n) or as the physical
set (--c --dx --q1 --q2 --r --sigma-m --sigma-d --alpha), never mixed; a
JSON --config file may supply the same keys, with explicit flags winning.

Each command builds its output files, then ``_write_all`` writes all or none.

Start-up imports only what every command runs (``params``, ``spectral``
and ``synthesis``); each command imports the other modules it uses at the
top of its function, marked "# this command's own modules".

Exit codes: 0 success, 1 verification failure (including a Newton-Kleinman
oracle that does not converge), 2 bad usage or configuration, including a
simulate --dt that fails a step-size check or makes the run blow up, a
design or a report, sweep or verify cost that is not finite, and output
files that cannot all be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict

import numpy as np

from . import synthesis
from .params import (DimensionalParams, NondimParams, locality_residuals,
                     nondimensionalize)
from .spectral import offdiag_masses

_PI_DEFAULTS = {"pi1": 0.0, "pi2": 1.0, "pi3": 1.0, "pi4": 1.0}
_DIM_KEYS = ("c", "dx", "q1", "q2", "r", "sigma_m", "sigma_d", "alpha")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("dimensionless parameters")
    for key in _PI_DEFAULTS:
        g.add_argument(f"--{key}", type=float)
    d = sp.add_argument_group("physical parameters (mapped through "
                              "nondimensionalize; all eight required)")
    for key in _DIM_KEYS:
        d.add_argument(f"--{key.replace('_', '-')}", type=float,
                       dest=key)
    sp.add_argument("--n", type=int, help="ring sites (default 30)")
    sp.add_argument("--config", help="JSON file with the same keys as the "
                                     "parameter flags")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _number(merged: dict, key: str, default: float | None = None) -> float:
    value = merged.get(key, default)
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise UsageError(f"{key} must be a number, got {value!r}")


def _resolve_params(args, require_matched_scaling: bool = False):
    """Merge --config with explicit flags and build the dimensionless
    parameter set, from physical parameters when those are given."""
    merged: dict = {}
    if args.config:
        merged.update(_load_config(args.config))
    for key in (*_PI_DEFAULTS, *_DIM_KEYS, "n"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    pi_given = [k for k in _PI_DEFAULTS if k in merged]
    dim_given = [k for k in _DIM_KEYS if k in merged]
    if pi_given and dim_given:
        raise UsageError("give either dimensionless or physical parameters, "
                         f"not both (got {pi_given + dim_given})")
    n = merged.get("n", 30)  # the parameter sets reject a non-integer
    if dim_given:
        missing = [k for k in _DIM_KEYS if k not in merged]
        if missing:
            raise UsageError(
                f"physical parameter set is incomplete; missing {missing}")
        dim = DimensionalParams(n=n, **{k: _number(merged, k)
                                        for k in _DIM_KEYS})
        if require_matched_scaling and dim.r != dim.sigma_d:
            raise UsageError(
                "the output-feedback loop identifies the plant and "
                "estimator scalings, which needs r == sigma_d "
                f"(got r={dim.r!r}, sigma_d={dim.sigma_d!r})")
        return nondimensionalize(dim)
    return NondimParams(n=n, **{k: _number(merged, k, v)
                                for k, v in _PI_DEFAULTS.items()})


def _verdict_lines(p: NondimParams) -> list[str]:
    if p.pi1 == 0.0:
        return ["verdict: not decentralizable (pi1=0); every choice of "
                "pi3, pi4 leaves frequency-dependent gains"]
    res_k, res_l = locality_residuals(p)
    k_on, l_on = (abs(r) <= synthesis.decentralization_tolerance
                  for r in (res_k, res_l))
    state = {True: "completely decentralized", False: "not decentralized"}
    verdict = ("completely decentralized output feedback" if k_on and l_on
               else "partially decentralized" if k_on or l_on
               else "not decentralized at these parameters")
    return [f"regulator: {state[k_on]} (pi1 - 2/pi3 = {res_k:.6g})",
            f"filter:    {state[l_on]} (pi1 - 2/pi4 = {res_l:.6g})",
            f"verdict: {verdict}"]


def _write_all(outputs: list[tuple[str, Iterable[str]]]) -> None:
    """Write each (path, pieces) pair's pieces to ``<path>.tmp``, then move
    every file into place with ``os.replace``; a failure removes the
    temporary files.  Rejected first: a directory target, which os.replace
    would refuse only late, and two targets or temporaries that resolve to
    one file, where the later would silently replace the earlier."""
    seen = set()
    for path, _ in outputs:
        if os.path.isdir(path):
            raise UsageError(f"cannot write {path}: it is a directory")
        for name in (path, f"{path}.tmp"):
            real = os.path.realpath(name)
            if real in seen:
                raise UsageError(f"cannot write {path}: two outputs or "
                                 f"their temporary files resolve to {name}")
            seen.add(real)
    pending = []  # (temporary, target)
    try:
        for path, pieces in outputs:
            with open(f"{path}.tmp", "w") as fh:
                pending.append((fh.name, path))
                fh.writelines(pieces)
        for tmp, path in pending:
            os.replace(tmp, path)
    finally:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.remove(tmp)


_BLOCK_NAMES = {synthesis.GainKind.LQR: ("K1", "K2"),
                synthesis.GainKind.KF: ("L1", "L2")}


def _cmd_synth(args) -> int:
    p = _resolve_params(args)
    sets = [gs for gs in synthesis.optimal_gains(p)
            if args.kind in ("both", gs.kind.value)]
    outputs = [(f"{args.out}_{gs.kind.value}.json",
                [json.dumps(synthesis.gain_set_to_dict(gs), indent=1)])
               for gs in sets]
    _write_all(outputs)
    for (path, _), gs in zip(outputs, sets):
        print(f"wrote {path}")
        masses = offdiag_masses(gs.spectra, 1.0)
        for name, mass in zip(_BLOCK_NAMES[gs.kind], masses):
            print(f"  offdiag_mass({name}) = {mass:.3e}")
    print(*_verdict_lines(p), sep="\n")
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # this command's own modules: it and the oracle
    if args.check_file:
        with open(args.check_file) as fh:
            gs = synthesis.gain_set_from_dict(json.load(fh))
        checks = verify.audit_gain_set(gs)
        source = args.check_file
    else:
        p = _resolve_params(args)
        try:
            checks = verify.verify_point(p)
        except verify.ConvergenceError as exc:
            print(f"error: Newton-Kleinman oracle did not converge: {exc}",
                  file=sys.stderr)
            return 1
        source = (f"pi=({p.pi1:.6g}, {p.pi2:.6g}, {p.pi3:.6g}, {p.pi4:.6g}), "
                  f"n={p.n}")
    ok = all(c.ok for c in checks)
    for c in checks:
        status = "ok " if c.ok else "FAIL"
        print(f"[{status}] {c.name}: {c.value:.3e} (tol {c.tol:.0e})")
    print(f"verify {'passed' if ok else 'FAILED'} for {source}")
    if args.report:
        _write_all([(args.report, [json.dumps(
            {"pass": ok, "source": source,
             "checks": [asdict(c) for c in checks]}, indent=1)])])
    return 0 if ok else 1


def _log_grid(name: str, lo: float, hi: float, count: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"--{name}-min and --{name}-max must be finite, "
                         f"got {lo!r} and {hi!r}")
    if not (lo > 0.0 and count >= 1
            and (hi > lo or (hi == lo and count == 1))):
        raise UsageError("grid bounds must satisfy 0 < min < max, count >= 1")
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _cmd_sweep(args) -> int:
    from . import analysis  # this command's own modules
    from .svgplot import heatmap_svg, line_plot_svg
    if args.curve_only and args.heatmap:
        raise UsageError("--heatmap needs a 2-D sweep, not --curve-only")
    if args.lineplot and not args.curve_only:
        raise UsageError("--lineplot is for --curve-only sweeps")
    pi1 = _log_grid("pi1", args.pi1_min, args.pi1_max, args.pi1_count)
    if args.curve_only:
        table = analysis.curve_reports(pi1, pi2=args.pi2, n=args.n)
    else:
        grid = analysis.SweepGrid(
            pi1_values=pi1,
            pi34_values=_log_grid("pi34", args.pi34_min, args.pi34_max,
                                  args.pi34_count),
            pi2=args.pi2, n=args.n, tie_pi3_pi4=not args.untie,
            pi3_fixed=args.pi3_fixed)
        table = analysis.sweep(grid)
    outputs = [(args.out, [analysis.rows_to_csv(table)])]
    if args.heatmap:
        metric = {"lqr": "j_lqr", "kf": "j_kf", "lqg": "j_lqg"}[args.metric]
        x, y = grid.pi1_values, grid.pi34_values  # y is pi4, tied or not
        z = table[metric].reshape(x.size, y.size).T
        cy = np.logspace(np.log10(y.min()), np.log10(y.max()), 200)
        svg = heatmap_svg(x, y, z, xlabel="pi1", ylabel="pi4",
                          title=f"{metric} (n={args.n}, pi2={args.pi2:g})",
                          curve_xy=(2.0 / cy, cy))
        outputs.append((args.heatmap, [svg]))
    if args.lineplot:
        series = {c: table[c] for c in ("j_lqr", "j_kf", "j_lqg")}
        svg = line_plot_svg(table["pi1"], series, xlabel="pi1", ylabel="cost",
                            title=f"costs along pi3=pi4=2/pi1 (n={args.n})")
        outputs.append((args.lineplot, [svg]))
    _write_all(outputs)
    print(f"wrote {args.out} ({table['n'].size} rows)")
    for path, _ in outputs[1:]:
        print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    from .simulator import SimConfig, simulate  # this command's own modules
    p = _resolve_params(args, require_matched_scaling=True)
    cfg = SimConfig(params=p, dt=args.dt, t_final=args.t_final,
                    seed=args.seed, burn_in=args.burn_in,
                    n_realizations=args.realizations,
                    noise_scale=0.0 if args.zero_noise else 1.0,
                    store_every=args.store_every)
    traj, summary = simulate(cfg)
    print(f"empirical lqg cost:      {summary.empirical_lqg_cost:.6g}   "
          f"(predicted {summary.predicted_lqg_cost:.6g})")
    print(f"empirical est err trace: {summary.empirical_est_err_cov_trace:.6g}"
          f"   (predicted {summary.predicted_est_err_cov_trace:.6g})")
    print(f"backend: {summary.backend}, rng: {summary.generator}, "
          f"seed: {summary.seed}, realizations: {summary.n_realizations}")
    outputs = []
    if args.summary_json:
        outputs.append((args.summary_json,
                        [json.dumps(asdict(summary), indent=1)]))
    if args.traj_csv:
        outputs.append((args.traj_csv, _trajectory_lines(traj, p.n)))
    _write_all(outputs)
    for path, _ in outputs:
        print(f"wrote {path}")
    return 0


def _trajectory_lines(traj, n: int) -> Iterable[str]:
    """The trajectory CSV line by line, one row per stored step."""
    yield ",".join(["time", *(f"{name}_{i}" for name in (
        "pos", "vel", "est_pos", "est_vel", "u") for i in range(n)),
        "running_cost"]) + "\n"
    for row in zip(traj.times, traj.plant_state, traj.estimate,
                   traj.control, traj.running_cost):
        yield ",".join(repr(float(v)) for v in np.hstack(row)) + "\n"


def _cmd_report(args) -> int:
    from . import analysis  # this command's own modules
    p = _resolve_params(args, require_matched_scaling=True)
    text = json.dumps(asdict(analysis.report(p)), indent=1)
    if args.out:
        _write_all([(args.out, [text, "\n"])])
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavelqg",
        description="Closed-form LQG design and locality analysis for the "
                    "discretized wave equation on a ring.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize gains, write GainSet JSON")
    _add_param_flags(sp)
    sp.add_argument("--kind", choices=["lqr", "kf", "both"], default="both")
    sp.add_argument("--out", default="gains",
                    help="output path prefix (default 'gains')")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("verify",
                        help="check closed forms against the Newton-Kleinman "
                             "oracle, or audit a gain file")
    _add_param_flags(sp)
    sp.add_argument("--check-file", help="GainSet JSON to audit")
    sp.add_argument("--report", help="write a JSON verification report here")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep", help="cost/locality sweep over (pi1, pi3=pi4)")
    sp.add_argument("--pi1-min", type=float, default=1e-1)
    sp.add_argument("--pi1-max", type=float, default=1e1)
    sp.add_argument("--pi1-count", type=int, default=50)
    sp.add_argument("--pi34-min", type=float, default=1e-1)
    sp.add_argument("--pi34-max", type=float, default=1e1)
    sp.add_argument("--pi34-count", type=int, default=50)
    sp.add_argument("--pi2", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=30)
    sp.add_argument("--untie", action="store_true",
                    help="sweep pi4 alone; hold pi3 at --pi3-fixed")
    sp.add_argument("--pi3-fixed", type=float, default=1.0)
    sp.add_argument("--curve-only", action="store_true",
                    help="1-D sweep along pi3 = pi4 = 2/pi1")
    sp.add_argument("--out", default="sweep.csv")
    sp.add_argument("--heatmap", help="write an SVG heatmap here")
    sp.add_argument("--metric", choices=["lqr", "kf", "lqg"], default="kf")
    sp.add_argument("--lineplot", help="write an SVG line plot here "
                                       "(--curve-only)")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("simulate", help="Monte Carlo validation run")
    _add_param_flags(sp)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--t-final", type=float, default=200.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--burn-in", type=float, default=0.2)
    sp.add_argument("--realizations", type=int, default=1)
    sp.add_argument("--store-every", type=int, default=100)
    sp.add_argument("--zero-noise", action="store_true")
    sp.add_argument("--traj-csv", help="write the stored trajectory here")
    sp.add_argument("--summary-json", help="write the run summary here")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("report", help="costs and locality at one point")
    _add_param_flags(sp)
    sp.add_argument("--out", help="write JSON here instead of stdout")
    sp.set_defaults(func=_cmd_report)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call: parsing
    leaves no state in it, and building it costs far more than parsing."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError, KeyError) as exc:
        # ValueError covers json.JSONDecodeError and every parameter check
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
