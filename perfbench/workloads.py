"""Seeded operation generators and output checks for the four workloads.

An operation is a short list of ``wavelqg`` command lines run back to back.
Every path in an argv is relative: the runner executes operations inside a
scratch directory, so the same seed yields byte-identical argv lists.

Operations come in blocks whose size mix is fixed (only the values drawn
inside each stratum vary with the seed), and a run always ends on a block
boundary.  That keeps the distribution of operation sizes the same from
run to run, which is what makes the medians and tails steady.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from scipy import linalg as sla

from wavelqg import analysis
from wavelqg.params import NondimParams


@dataclass(frozen=True)
class Op:
    """One operation: the commands it runs and what it is worth."""

    index: int
    commands: tuple[tuple[str, ...], ...]
    work: float     # the workload's unit of work (see Workload.work_unit)
    points: int     # parameter points the operation evaluates
    info: dict      # what the output check needs


@dataclass(frozen=True)
class Check:
    ok: bool
    rel_dev: float  # worst relative deviation from the reference, 0 if none
    detail: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    block: int
    ops: Callable[[int, bool], Iterator[Op]]
    check: Callable[[Op, Path, bool], Check]
    kernel_n: int   # ring size for the stepping-kernel backend comparison
    probe: Callable[[], float]  # times a fixed calibration probe
    probe_ref_s: float  # its typical time on the machine the bounds were set on


def _num(x: float) -> str:
    return repr(float(x))


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _log_bounds(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """Two grid bounds in [lo, hi], at least a third of a decade apart."""
    while True:
        a, b = sorted(rng.uniform(math.log10(lo), math.log10(hi))
                      for _ in range(2))
        if b - a >= 1.0 / 3.0:
            return 10.0 ** a, 10.0 ** b


def _rel(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-300)


# --- calibration probes -----------------------------------------------------

# Each probe times fixed work shaped like its workload's hot path, built
# from numpy and scipy alone, so a change to wavelqg never changes it.  How
# much a busy neighbour slows code depends on the code: between runs an
# interpreter-bound probe swung by 2x while a dense stepping operation
# swung by 1.5x.  A probe of the wrong shape then over-corrects.

def interp_probe() -> float:
    """Interpreter and small-array numpy work, like a sweep's per-point code."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    s = 0.0
    for i in range(900):
        s += float(np.sqrt(x * i + 1.0).sum()) + sum(range(40))
    return time.perf_counter() - t0


def step_probe(dim: int, steps: int) -> Callable[[], float]:
    """Steps of a dense Euler-Maruyama loop on a (dim, dim) generator.

    The same per-step operations as the stepping kernel: two quadratic
    forms, an error norm, the generator product and a max-abs check.
    """
    rng = np.random.default_rng(0)
    m = rng.standard_normal((dim, dim)) / dim
    w = rng.standard_normal((dim // 2, dim // 2))
    noise = rng.standard_normal((steps, dim)) * 0.01

    def probe() -> float:
        t0 = time.perf_counter()
        z = np.zeros(dim)
        acc = 0.0
        for t in range(steps):
            x, xh = z[:dim // 2], z[dim // 2:]
            acc += float(x @ (w @ x) + xh @ (w @ xh))
            e = x - xh
            acc += float(e @ e)
            z += 0.01 * (m @ z) + noise[t]
            acc = max(acc, float(np.abs(z).max()))
        return time.perf_counter() - t0
    return probe


def dense_probe() -> float:
    """Lyapunov solves and eigenvalues of small dense matrices, like verify."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for dim in (16, 32, 60):
        a = rng.standard_normal((dim, dim)) / math.sqrt(dim) - 2.0 * np.eye(dim)
        sla.solve_continuous_lyapunov(a, -np.eye(dim))
        np.linalg.eigvals(np.kron(np.eye(2), a))
    return time.perf_counter() - t0


# --- design-sweep -----------------------------------------------------------

# Per block of 8: one curve-only sweep, two untied and five tied 2-D sweeps.
# The 2-D sweeps draw their point count from four log-strata of [100, 2500],
# one sweep each from the two lowest, two from the next and three from the
# top.  The median operation then falls inside the doubled stratum and the
# tenth-from-top inside the tripled one, not on a jump between strata.  The
# ring size rotates over the slots from block to block, so every stratum
# sees each n equally often (a point costs about 25% more at n = 128 than
# at n = 8).
_SWEEP_KINDS = ("curve", "untie", "untie") + ("tied",) * 5
_SWEEP_STRATA = (0, 1, 2, 2, 3, 3, 3)
_SWEEP_TOL = 1e-9      # CSV costs vs report / dual trace form, relative
_OFFDIAG_TOL = 1e-10   # off-diagonal mass on pi3 = pi4 = 2/pi1


def design_sweep_ops(seed: int, tiny: bool = False) -> Iterator[Op]:
    rng = random.Random(f"design-sweep/{seed}")
    ns = (4, 6) if tiny else (8, 30, 128)
    cmin, cmax = (3, 5) if tiny else (10, 50)
    strata = max(_SWEEP_STRATA) + 1
    i = 0
    for block in itertools.count():
        kinds = list(_SWEEP_KINDS)
        rng.shuffle(kinds)
        slots = list(range(len(_SWEEP_STRATA)))
        rng.shuffle(slots)
        for kind in kinds:
            lo1, hi1 = _log_bounds(rng, 1e-2, 1e2)
            if kind == "curve":
                n = rng.choice(ns)
                count = rng.randint(cmin, cmax)
                argv = ("sweep", "--curve-only", "--pi1-min", _num(lo1),
                        "--pi1-max", _num(hi1), "--pi1-count", str(count),
                        "--n", str(n), "--out", f"op{i}.csv",
                        "--lineplot", f"op{i}.svg")
                rows = count
            else:
                slot = slots.pop()
                n = ns[(slot + block) % len(ns)]
                lo_pts, hi_pts = cmin * cmin, cmax * cmax
                target = lo_pts * (hi_pts / lo_pts) ** (
                    (_SWEEP_STRATA[slot] + rng.uniform(0.45, 0.55)) / strata)
                c1 = round(math.sqrt(target) * math.exp(rng.uniform(-0.3, 0.3)))
                c1 = min(max(c1, cmin), cmax)
                c2 = min(max(round(target / c1), cmin), cmax)
                lo2, hi2 = _log_bounds(rng, 1e-2, 1e2)
                argv = ("sweep", "--pi1-min", _num(lo1), "--pi1-max", _num(hi1),
                        "--pi1-count", str(c1), "--pi34-min", _num(lo2),
                        "--pi34-max", _num(hi2), "--pi34-count", str(c2),
                        "--n", str(n), "--out", f"op{i}.csv",
                        "--heatmap", f"op{i}.svg")
                if kind == "untie":
                    argv += ("--untie", "--pi3-fixed",
                             _num(_loguniform(rng, 1e-2, 1e2)))
                rows = c1 * c2
            yield Op(index=i, commands=(argv,), work=rows, points=rows,
                     info={"csv": f"op{i}.csv", "svg": f"op{i}.svg",
                           "rows": rows, "sample": rng.randrange(2 ** 32)})
            i += 1


def design_sweep_check(op: Op, workdir: Path, tiny: bool) -> Check:
    with open(workdir / op.info["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != op.info["rows"]:
        return Check(False, 0.0, f"{len(rows)} rows, expected {op.info['rows']}")
    svg = (workdir / op.info["svg"]).read_text()
    if not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>"):
        return Check(False, 0.0, "SVG file is not a complete <svg> document")
    rng = random.Random(op.info["sample"])
    worst = 0.0
    for row in rng.sample(rows, min(4, len(rows))):
        p = NondimParams(pi1=float(row["pi1"]), pi2=float(row["pi2"]),
                         pi3=float(row["pi3"]), pi4=float(row["pi4"]),
                         n=int(row["n"]))
        ref = analysis.report(p)
        devs = (_rel(float(row["j_lqr"]), ref.j_lqr),
                _rel(float(row["j_kf"]), ref.j_kf),
                _rel(float(row["j_lqg"]), ref.j_lqg),
                _rel(float(row["j_lqg"]), analysis.lqg_cost_dual(p)))
        worst = max(worst, *devs)
    if worst > _SWEEP_TOL:
        return Check(False, worst, f"cost deviates by {worst:.3e}")
    for row in rows:
        pi1, pi3, pi4 = float(row["pi1"]), float(row["pi3"]), float(row["pi4"])
        if pi3 == pi4 == 2.0 / pi1:
            mass = max(float(row[k]) for k in
                       ("offdiag_k1", "offdiag_k2", "offdiag_l1", "offdiag_l2"))
            if mass > _OFFDIAG_TOL:
                return Check(False, worst,
                             f"off-diagonal mass {mass:.3e} on the curve")
    return Check(True, worst)


# --- point-verify -----------------------------------------------------------

# Per block of 8 the ring sizes below, shuffled; the median falls inside the
# n = 30 group rather than on the jump between two sizes.  Every draw is
# log-uniform in the acceptance range [1e-2, 1e2], where no operation may
# fail: a failure there makes the run incorrect.
_VERIFY_SIZES = (8, 8, 16, 30, 30, 30, 64, 64)


def point_verify_ops(seed: int, tiny: bool = False) -> Iterator[Op]:
    rng = random.Random(f"point-verify/{seed}")
    sizes = tuple(min(n, 8) for n in _VERIFY_SIZES) if tiny else _VERIFY_SIZES
    i = 0
    while True:
        ns = list(sizes)
        rng.shuffle(ns)
        for n in ns:
            pi1, pi3, pi4 = (_loguniform(rng, 1e-2, 1e2) for _ in range(3))
            flags = ("--pi1", _num(pi1), "--pi3", _num(pi3), "--pi4", _num(pi4),
                     "--n", str(n))
            commands = (("synth", *flags, "--out", f"op{i}"),
                        ("verify", "--check-file", f"op{i}_lqr.json"),
                        ("verify", "--check-file", f"op{i}_kf.json"),
                        ("verify", *flags, "--report", f"op{i}_verify.json"))
            yield Op(index=i, commands=commands, work=n, points=1,
                     info={"report": f"op{i}_verify.json"})
            i += 1


def point_verify_check(op: Op, workdir: Path, tiny: bool) -> Check:
    # Every command exited 0 (the runner checks that); the deviation is the
    # verify report's own comparison of closed forms with the dense oracle.
    with open(workdir / op.info["report"]) as fh:
        rep = json.load(fh)
    devs = [c["value"] for c in rep["checks"]
            if c["name"] in ("per_frequency_gain_vs_dense_oracle",
                             "lqg_cost_dual_form_agreement")]
    return Check(bool(rep["pass"]) and len(devs) == 2, max(devs, default=0.0))


# --- mc-narrow / mc-wide ----------------------------------------------------

# Relative distance allowed between the Monte Carlo estimates and the closed
# forms.  Over 120 measured operations of the two workloads the worst was
# 0.11: about 0.05 of Euler-Maruyama bias at dt = 0.01 plus sampling spread
# with a standard deviation near 0.03.
_MC_TOL = 0.25
_MC_TOL_TINY = 1.5   # tiny self-test runs are a few hundred steps long


def _mc_ops(name: str, n: int, realizations: int, t_final: float,
            tiny_n: int, tiny_t: float):
    def ops(seed: int, tiny: bool = False) -> Iterator[Op]:
        rng = random.Random(f"{name}/{seed}")
        ring, t = (tiny_n, tiny_t) if tiny else (n, t_final)
        reals = 2 if tiny else realizations
        steps = round(t / 0.01)
        i = 0
        while True:
            for on_curve in (True, False):
                pi3 = _loguniform(rng, 0.5, 16.0)
                if on_curve:
                    pi1, pi4 = 2.0 / pi3, pi3
                else:
                    pi1 = _loguniform(rng, 2.0 / 16.0, 2.0 / 0.5)
                    pi4 = _loguniform(rng, 0.5, 16.0)
                argv = ("simulate", "--pi1", _num(pi1), "--pi3", _num(pi3),
                        "--pi4", _num(pi4), "--n", str(ring), "--dt", "0.01",
                        "--t-final", _num(t), "--realizations", str(reals),
                        "--seed", str(rng.randrange(2 ** 31)),
                        "--summary-json", f"op{i}.json")
                yield Op(index=i, commands=(argv,), work=reals * steps,
                         points=1,
                         info={"summary": f"op{i}.json", "pi1": pi1,
                               "pi3": pi3, "pi4": pi4, "n": ring})
                i += 1
    return ops


def mc_check(op: Op, workdir: Path, tiny: bool) -> Check:
    with open(workdir / op.info["summary"]) as fh:
        summary = json.load(fh)
    p = NondimParams(pi1=op.info["pi1"], pi2=1.0, pi3=op.info["pi3"],
                     pi4=op.info["pi4"], n=op.info["n"])
    # the dual trace form is an independent route to the predicted cost
    j_ref, e_ref = analysis.lqg_cost_dual(p), analysis.kf_cost(p)
    if (_rel(summary["predicted_lqg_cost"], j_ref) > _SWEEP_TOL
            or _rel(summary["predicted_est_err_cov_trace"], e_ref) > _SWEEP_TOL):
        return Check(False, 0.0, "summary predictions disagree with the "
                                 "closed forms")
    dev = max(_rel(summary["empirical_lqg_cost"], j_ref),
              _rel(summary["empirical_est_err_cov_trace"], e_ref))
    tol = _MC_TOL_TINY if tiny else _MC_TOL
    return Check(dev <= tol, dev, "" if dev <= tol else
                 f"Monte Carlo estimate off by {dev:.3f} (tolerance {tol})")


WORKLOADS = {w.name: w for w in (
    Workload("design-sweep", "points", len(_SWEEP_KINDS), design_sweep_ops,
             design_sweep_check, kernel_n=30, probe=interp_probe,
             probe_ref_s=0.006),
    Workload("point-verify", "frequency-blocks", len(_VERIFY_SIZES),
             point_verify_ops, point_verify_check, kernel_n=30,
             probe=dense_probe, probe_ref_s=0.010),
    Workload("mc-narrow", "realization-steps", 2,
             _mc_ops("mc-narrow", n=8, realizations=8, t_final=50.0,
                     tiny_n=4, tiny_t=2.0),
             mc_check, kernel_n=8, probe=step_probe(32, 400),
             probe_ref_s=0.008),
    Workload("mc-wide", "realization-steps", 2,
             _mc_ops("mc-wide", n=128, realizations=1, t_final=25.0,
                     tiny_n=16, tiny_t=2.0),
             mc_check, kernel_n=128, probe=step_probe(512, 60),
             probe_ref_s=0.010),
)}
