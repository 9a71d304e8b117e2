"""Command-line interface.

Subcommands: synth, verify, sweep, simulate, report.  Parameters are given
either as the dimensionless groups (--pi1 .. --pi4, --n) or as the physical
set (--c --dx --q1 --q2 --r --sigma-m --sigma-d --alpha), never mixed; a
JSON --config file may supply the same keys, with explicit flags winning.

Exit codes: 0 success, 1 verification failure, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, synthesis
from .oracle import (DenseAreProblem, care_residual, solve_care_dense,
                     solve_filter_are_dense, spectral_abscissa)
from .params import DimensionalParams, NondimParams, nondimensionalize
from .simulator import SimConfig, simulate
from .spectral import laplacian_spectrum, offdiag_mass, spectrum_of_circulant
from .svgplot import heatmap_svg, line_plot_svg

_PI_KEYS = ("pi1", "pi2", "pi3", "pi4")
_DIM_KEYS = ("c", "dx", "q1", "q2", "r", "sigma_m", "sigma_d", "alpha")


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("dimensionless parameters")
    for key in _PI_KEYS:
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


def _resolve_params(args, require_matched_scaling: bool = False):
    """Merge --config with explicit flags and build the parameter set.

    Returns (NondimParams, DimensionalParams | None).
    """
    merged: dict = {}
    if args.config:
        merged.update(_load_config(args.config))
    for key in _PI_KEYS + _DIM_KEYS + ("n",):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    pi_given = [k for k in _PI_KEYS if k in merged]
    dim_given = [k for k in _DIM_KEYS if k in merged]
    if pi_given and dim_given:
        raise UsageError("give either dimensionless or physical parameters, "
                         f"not both (got {pi_given + dim_given})")
    n = int(merged.get("n", 30))
    try:
        if dim_given:
            missing = [k for k in _DIM_KEYS if k not in merged]
            if missing:
                raise UsageError(
                    f"physical parameter set is incomplete; missing {missing}")
            dim = DimensionalParams(n=n, **{k: float(merged[k])
                                            for k in _DIM_KEYS})
            if require_matched_scaling and dim.r != dim.sigma_d:
                raise UsageError(
                    "the output-feedback loop identifies the plant and "
                    "estimator scalings, which needs r == sigma_d "
                    f"(got r={dim.r!r}, sigma_d={dim.sigma_d!r})")
            return nondimensionalize(dim), dim
        p = NondimParams(pi1=float(merged.get("pi1", 0.0)),
                         pi2=float(merged.get("pi2", 1.0)),
                         pi3=float(merged.get("pi3", 1.0)),
                         pi4=float(merged.get("pi4", 1.0)),
                         n=n)
        return p, None
    except ValueError as exc:
        raise UsageError(str(exc))


def _verdict_lines(p: NondimParams) -> list[str]:
    res_k = p.pi1 - 2.0 / p.pi3
    res_l = p.pi1 - 2.0 / p.pi4
    tol = synthesis.decentralization_tolerance
    lines = []
    if p.pi1 == 0.0:
        lines.append("verdict: not decentralizable (pi1=0); every choice of "
                     "pi3, pi4 leaves frequency-dependent gains")
        return lines
    k_on = abs(res_k) <= tol
    l_on = abs(res_l) <= tol
    lines.append(f"regulator: {'completely decentralized' if k_on else 'not decentralized'}"
                 f" (pi1 - 2/pi3 = {res_k:.6g})")
    lines.append(f"filter:    {'completely decentralized' if l_on else 'not decentralized'}"
                 f" (pi1 - 2/pi4 = {res_l:.6g})")
    if k_on and l_on:
        lines.append("verdict: completely decentralized output feedback")
    elif k_on or l_on:
        lines.append("verdict: partially decentralized")
    else:
        lines.append("verdict: not decentralized at these parameters")
    return lines


def _cmd_synth(args) -> int:
    p, _ = _resolve_params(args)
    kinds = {"lqr": [synthesis.GainKind.LQR], "kf": [synthesis.GainKind.KF],
             "both": [synthesis.GainKind.LQR, synthesis.GainKind.KF]}[args.kind]
    for kind in kinds:
        if kind is synthesis.GainKind.LQR:
            gs = synthesis.assemble_gains(synthesis.lqr_spectral_gain(p), p)
        else:
            gs = synthesis.assemble_gains(synthesis.kf_spectral_gain(p), p)
        path = f"{args.out}_{kind.value}.json"
        with open(path, "w") as fh:
            json.dump(synthesis.gain_set_to_dict(gs), fh, indent=1)
        print(f"wrote {path}")
        names = ("K1", "K2") if kind is synthesis.GainKind.LQR else ("L1", "L2")
        for name, block in zip(names, (gs.block1, gs.block2)):
            print(f"  offdiag_mass({name}) = {offdiag_mass(block):.3e}")
    for line in _verdict_lines(p):
        print(line)
    return 0


def _check_gain_file(path: str) -> tuple[bool, list[dict]]:
    with open(path) as fh:
        payload = json.load(fh)
    gs = synthesis.gain_set_from_dict(payload)
    checks = []
    res = synthesis.gain_are_residuals(gs)
    checks.append({"name": "spectral_gain_riccati_residual",
                   "value": float(res.max()), "tol": 1e-9,
                   "ok": bool(res.max() <= 1e-9)})
    expected1 = (gs.spectral.k0 if gs.kind is synthesis.GainKind.LQR
                 else gs.spectral.companion)
    expected2 = (gs.spectral.companion if gs.kind is synthesis.GainKind.LQR
                 else gs.spectral.k0)
    for label, block, expected in (("block1", gs.block1, expected1),
                                   ("block2", gs.block2, expected2)):
        got = spectrum_of_circulant(block).values
        dev = float(np.abs(got - expected).max())
        scale = 1.0 + float(np.abs(expected).max())
        checks.append({"name": f"{label}_rows_match_spectra",
                       "value": dev, "tol": 1e-8 * scale,
                       "ok": bool(dev <= 1e-8 * scale)})
    ok = all(c["ok"] for c in checks)
    return ok, checks


def _verify_at_params(p: NondimParams) -> tuple[bool, list[dict]]:
    d = laplacian_spectrum(p.n).values.real
    kg = synthesis.lqr_spectral_gain(p)
    fg = synthesis.kf_spectral_gain(p)
    kr = synthesis.lqr_riccati_spectrum(p)
    fr = synthesis.kf_riccati_spectrum(p)
    gain_err = 0.0
    res_max = 0.0
    for k in range(p.n):
        a = np.array([[0.0, 1.0], [d[k], 0.0]])
        prob = DenseAreProblem(a, [0.0, 1.0],
                               np.diag([1.0 - p.pi1 * d[k], p.pi2]),
                               [[p.pi3 ** 2]])
        _, kd = solve_care_dense(prob)
        gain_err = max(gain_err,
                       abs(kd[0, 0] - kg.k0[k]) / max(abs(kd[0, 0]), 1e-30),
                       abs(kd[0, 1] - kg.companion[k]) / max(abs(kd[0, 1]), 1e-30))
        res_max = max(res_max, care_residual(kr.block(k), prob))
        c = np.array([[p.pi4, 0.0]])
        s, ld = solve_filter_are_dense(a, c, np.diag([0.0, 1.0]),
                                       [[1.0 - p.pi1 * d[k]]])
        gain_err = max(gain_err,
                       abs(ld[1, 0] - fg.k0[k]) / max(abs(ld[1, 0]), 1e-30),
                       abs(ld[0, 0] - fg.companion[k]) / max(abs(ld[0, 0]), 1e-30))
        sb = fr.block(k)
        resf = a @ sb + sb @ a.T + np.diag([0.0, 1.0]) \
            - sb @ c.T @ np.array([[1.0 - p.pi1 * d[k]]]) @ c @ sb
        res_max = max(res_max, float(np.abs(resf).max()))
    checks = [
        {"name": "per_frequency_gain_vs_dense_oracle", "value": gain_err,
         "tol": 1e-7, "ok": bool(gain_err <= 1e-7)},
        {"name": "closed_form_riccati_residual", "value": res_max,
         "tol": 1e-9, "ok": bool(res_max <= 1e-9)},
    ]
    j1 = analysis.lqg_cost(p)
    j2 = analysis.lqg_cost_dual(p)
    dual_dev = abs(j1 - j2) / max(abs(j1), 1e-30)
    checks.append({"name": "lqg_cost_dual_form_agreement", "value": dual_dev,
                   "tol": 1e-6, "ok": bool(dual_dev <= 1e-6)})
    cl = analysis.build_closed_loop(p)
    absc = spectral_abscissa(cl.augmented)
    checks.append({"name": "closed_loop_spectral_abscissa", "value": absc,
                   "tol": 0.0, "ok": bool(absc < 0.0)})
    return all(c["ok"] for c in checks), checks


def _cmd_verify(args) -> int:
    if args.check_file:
        ok, checks = _check_gain_file(args.check_file)
        source = args.check_file
    else:
        p, _ = _resolve_params(args)
        ok, checks = _verify_at_params(p)
        source = (f"pi=({p.pi1:.6g}, {p.pi2:.6g}, {p.pi3:.6g}, {p.pi4:.6g}), "
                  f"n={p.n}")
    for c in checks:
        status = "ok " if c["ok"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['value']:.3e} (tol {c['tol']:.0e})")
    print(f"verify {'passed' if ok else 'FAILED'} for {source}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"pass": ok, "source": source, "checks": checks}, fh,
                      indent=1)
    return 0 if ok else 1


def _log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    if count == 1 and lo > 0.0 and hi == lo:
        return np.array([lo])
    if not (lo > 0.0 and hi > lo and count >= 1):
        raise UsageError("grid bounds must satisfy 0 < min < max, count >= 1")
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def _cmd_sweep(args) -> int:
    if args.curve_only:
        pi1 = _log_grid(args.pi1_min, args.pi1_max, args.pi1_count)
        rows = analysis.curve_reports(pi1, pi2=args.pi2, n=args.n)
    else:
        grid = analysis.SweepGrid(
            pi1_values=_log_grid(args.pi1_min, args.pi1_max, args.pi1_count),
            pi34_values=_log_grid(args.pi34_min, args.pi34_max,
                                  args.pi34_count),
            pi2=args.pi2, n=args.n, tie_pi3_pi4=not args.untie,
            pi3_fixed=args.pi3_fixed)
        rows = analysis.sweep(grid)
    csv_text = analysis.rows_to_csv(rows)
    with open(args.out, "w") as fh:
        fh.write(csv_text)
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.heatmap:
        if args.curve_only:
            raise UsageError("--heatmap needs a 2-D sweep, not --curve-only")
        metric = {"lqr": "j_lqr", "kf": "j_kf", "lqg": "j_lqg"}[args.metric]
        x = np.unique([r.params.pi1 for r in rows])
        y = np.unique([r.params.pi4 for r in rows])
        z = np.array([getattr(r.report, metric) for r in rows]).reshape(
            x.size, y.size).T
        cy = np.logspace(np.log10(y.min()), np.log10(y.max()), 200)
        svg = heatmap_svg(x, y, z, xlabel="pi1", ylabel="pi4",
                          title=f"{metric} (n={args.n}, pi2={args.pi2:g})",
                          curve_xy=(2.0 / cy, cy))
        with open(args.heatmap, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.heatmap}")
    if args.lineplot:
        if not args.curve_only:
            raise UsageError("--lineplot is for --curve-only sweeps")
        x = np.array([r.params.pi1 for r in rows])
        series = {"j_lqr": [r.report.j_lqr for r in rows],
                  "j_kf": [r.report.j_kf for r in rows],
                  "j_lqg": [r.report.j_lqg for r in rows]}
        svg = line_plot_svg(x, series, xlabel="pi1", ylabel="cost",
                            title=f"costs along pi3=pi4=2/pi1 (n={args.n})")
        with open(args.lineplot, "w") as fh:
            fh.write(svg)
        print(f"wrote {args.lineplot}")
    return 0


def _cmd_simulate(args) -> int:
    p, _ = _resolve_params(args, require_matched_scaling=True)
    try:
        cfg = SimConfig(params=p, dt=args.dt, t_final=args.t_final,
                        seed=args.seed, burn_in=args.burn_in,
                        n_realizations=args.realizations,
                        noise_scale=0.0 if args.zero_noise else 1.0,
                        store_every=args.store_every)
    except ValueError as exc:
        raise UsageError(str(exc))
    traj, summary = simulate(cfg)
    print(f"empirical lqg cost:      {summary.empirical_lqg_cost:.6g}   "
          f"(predicted {summary.predicted_lqg_cost:.6g})")
    print(f"empirical est err trace: {summary.empirical_est_err_cov_trace:.6g}"
          f"   (predicted {summary.predicted_est_err_cov_trace:.6g})")
    print(f"backend: {summary.backend}, rng: {summary.generator}, "
          f"seed: {summary.seed}, realizations: {summary.n_realizations}")
    if args.summary_json:
        with open(args.summary_json, "w") as fh:
            json.dump(summary.to_dict(), fh, indent=1)
        print(f"wrote {args.summary_json}")
    if args.traj_csv:
        n = p.n
        cols = (["time"]
                + [f"pos_{i}" for i in range(n)]
                + [f"vel_{i}" for i in range(n)]
                + [f"est_pos_{i}" for i in range(n)]
                + [f"est_vel_{i}" for i in range(n)]
                + [f"u_{i}" for i in range(n)]
                + ["running_cost"])
        with open(args.traj_csv, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(traj.times.size):
                row = np.concatenate([[traj.times[i]], traj.plant_state[i],
                                      traj.estimate[i], traj.control[i],
                                      [traj.running_cost[i]]])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        print(f"wrote {args.traj_csv}")
    return 0


def _cmd_report(args) -> int:
    p, _ = _resolve_params(args, require_matched_scaling=True)
    rep = analysis.report(p)
    payload = rep.to_dict()
    text = json.dumps(payload, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
                        help="check closed forms against the dense oracle, "
                             "or audit a gain file")
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
