"""End-to-end and per-layer benchmark of the wavelqg command line.

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 25 --trace 0

One single-threaded client runs operations in a closed loop: each one is a
short list of ``wavelqg`` commands executed in-process through
``wavelqg.cli.main(argv)``, with stdout captured and output files in a
scratch directory under ``.bench_out/``.  The next operation starts when
the previous one and its output check are done.  Measurement stops at the
first block boundary after ``--seconds``.  Times are rescaled by a
calibration probe that runs between operations (see ``rescale``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, once plain and once with every public wavelqg function
wrapped by ``tracing.Tracer`` (alternating which goes first), and reports
the per-layer metrics plus the tracing overhead.  The last stdout line is
the result object; the line before it carries the full report with run
metadata, failures and the figures that are not gated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One client thread: BLAS threads or sweep workers would contend with it on
# a small machine and make the figures depend on what else runs there.  The
# tracer's span stack also assumes a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "WAVELQG_THREADS"):
    os.environ[_var] = "1"

SETUP_REPEATS = 9

PROBE_WINDOW = 2    # probes on each side of an operation that scale it


# What a fresh interpreter does before it can run its first operation.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import wavelqg, wavelqg.cli; wavelqg.cli.build_parser(); "
    "print('ready', flush=True)")

# The set-up probe: a fresh interpreter that imports numpy and no wavelqg.
# Set-up times are rescaled by it as operation times are by theirs (see
# rescale); SETUP_PROBE_REF_S is its typical time on the machine the bounds
# were set on.
_SETUP_PROBE_CODE = "import numpy; print('ready', flush=True)"
SETUP_PROBE_REF_S = 0.14

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                    "work_per_s": "work/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    **{f"{layer.lstrip('_')}.self_s": "s/op"
       for layer in ("cli", "params", "spectral", "synthesis", "analysis",
                     "oracle", "simulator", "_kernels", "svgplot")},
    "analysis.sweep.self_s": "s/op",
    "analysis.report.calls": "1/op",
    "analysis.report.self_s": "s/op",
    "synthesis.spectra_per_point": "1/point",
    "oracle.solve_care_dense.calls": "1/op",
    "oracle.newton_iters": "1/solve",
    "analysis.build_closed_loop.self_s": "s/op",
    "kernels.advance.calls": "1/op",
    "kernels.advance.steps": "steps/op",
    "kernels.advance.self_s": "s/op",
    "kernels.advance.steps_per_s": "steps/s",
    "kernels.advance.steps_per_s.python": "steps/s",
    "kernels.flops_computed": "flop/op",
    "kernels.bytes_computed": "B/op",
    "kernels.gflops": "GFLOP/s",
    "trace.overhead_s": "s",
}


# --- one operation ----------------------------------------------------------

def _call(cli, argv: tuple[str, ...]):
    """Run one command; return its exit code or the exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(list(argv))
    except SystemExit as exc:   # argparse rejects the argv
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:    # the program raised: counted as a failure
        return f"{type(exc).__name__}: {exc}"


def _run_op(cli, op) -> tuple[float, list]:
    """Run the op's commands in order, stopping at the first failure."""
    outcomes = []
    t0 = time.perf_counter()
    for argv in op.commands:
        outcomes.append(_call(cli, argv))
        if outcomes[-1] != 0:
            break
    return time.perf_counter() - t0, outcomes


def _clear(workdir: Path) -> None:
    for entry in workdir.iterdir():
        entry.unlink()


# --- statistics -------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten samples or fewer
    there is no such percentile and the maximum is returned.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100, 0
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return s[rank - 1], pct, n - rank


# --- set-up time ------------------------------------------------------------

def _spawn_ready(*args: str) -> float:
    """Wall time from spawning ``python -c <args>`` to its "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", *args], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {err.strip()}")
    return t1 - t0


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list, list]:
    """Set-up times, fresh interpreter to first op ready, and probe times.

    Set-up and probe spawns alternate.  One extra pair first warms the
    file cache and writes bytecode.
    """
    setup, probes = [], []
    for i in range(repeats + 1):
        times = (_spawn_ready(_SETUP_CODE, str(SRC)),
                 _spawn_ready(_SETUP_PROBE_CODE))
        if i:
            setup.append(times[0])
            probes.append(times[1])
    return setup, probes


# --- metadata ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        build = "unknown"
    return {"build": build,
            "threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" without one."""
    try:
        # the ceiling keeps git from finding a repository above ROOT
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES":
                                  str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(seed: int) -> dict:
    import numpy as np
    import scipy

    from wavelqg import simulator
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": _blas(),
            "kernel_backend": simulator.kernel_backend(),
            "wavelqg_threads": os.environ["WAVELQG_THREADS"],
            "commit": _git_commit(), "seed": seed}


# --- stepping-kernel backend comparison -------------------------------------

def kernel_backends(n: int, steps: int = 2000, repeat: int = 3) -> dict:
    """Best-of-``repeat`` steps/s of each stepping backend at ring size n.

    The same comparison as ``benchmarks/bench_stepper.py``, on its inputs.
    """
    from wavelqg import _kernels
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_stepper import build_workload

    z0, m, qbar, krk, noise = build_workload(n, steps)
    rates = {}
    for name, advance in _kernels.available_backends().items():
        best = math.inf
        for _ in range(repeat):
            z = z0.copy()
            t0 = time.perf_counter()
            advance(z, m, qbar, krk, noise, 0.005)
            best = min(best, time.perf_counter() - t0)
        rates[name] = steps / best
    return rates


# --- the run ----------------------------------------------------------------

class Run:
    """Operations, outcomes and timings of one benchmark run."""

    def __init__(self, workload, seed: int, tiny: bool, workdir: Path):
        from wavelqg import cli
        self.cli = cli
        self.workload = workload
        self.tiny = tiny
        self.workdir = workdir
        self.ops = workload.ops(seed, tiny)
        self.walls: list[float] = []
        self.credited: list[float] = []  # work per op, 0 for failed ones
        self.traced_walls: list[float] = []
        self.probes: list[float] = []   # workload.probe() after each op
        self.points = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.failures: list[dict] = []
        self.op_layers: list[tuple[float, dict]] = []  # (traced wall, self)

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports with two tiny operations."""
        ops = self.workload.ops(0, True)
        for _ in range(2):
            _run_op(self.cli, next(ops))
            _clear(self.workdir)

    def _record(self, op, wall: float, outcomes: list) -> None:
        """Count the op's outcome; only ops that pass their check earn work.

        A raise, a nonzero exit or a failed output check counts the op as
        failed, and any failed op makes the run incorrect.
        """
        self.walls.append(wall)
        self.points += op.points
        self.credited.append(0.0)
        if any(o != 0 for o in outcomes):
            self.failed += 1
            self.failures.append({"op": op.index,
                                  "argv": op.commands[len(outcomes) - 1],
                                  "outcome": outcomes[-1]})
            return
        check = self.workload.check(op, self.workdir, self.tiny)
        self.max_rel_dev = max(self.max_rel_dev, check.rel_dev)
        if not check.ok:
            self.failed += 1
            self.failures.append({"op": op.index, "check": check.detail})
            return
        self.credited[-1] = op.work

    def run(self, seconds: float, tracer=None) -> None:
        start = time.perf_counter()
        while True:
            for _ in range(self.workload.block):
                op = next(self.ops)
                if tracer is None:
                    wall, outcomes = _run_op(self.cli, op)
                else:
                    wall, outcomes = self._paired(op, tracer)
                self._record(op, wall, outcomes)
                _clear(self.workdir)
                self.probes.append(self.workload.probe())
            if time.perf_counter() - start >= seconds:
                return

    def _paired(self, op, tracer) -> tuple[float, list]:
        """Run op plain and traced, in alternating order; return the plain run."""
        plain = None
        for traced in ((False, True) if op.index % 2 == 0 else (True, False)):
            if not traced:
                plain = _run_op(self.cli, op)
                continue
            before = tracer.layer_self()
            tracer.op_id = op.index
            tracer.install()
            try:
                wall, _ = _run_op(self.cli, op)
            finally:
                tracer.uninstall()
            after = tracer.layer_self()
            self.traced_walls.append(wall)
            self.op_layers.append(
                (wall, {k: after[k] - before[k] for k in after}))
        return plain


def rescale(times: list[float], probes: list[float],
            ref_s: float) -> list[float]:
    """Each time times ``ref_s`` over the mean of its nearest probes.

    A shared machine's speed drifts by 20-50% over seconds to minutes,
    which swamps the differences the bounds are meant to catch.  So the
    workload's calibration probe, a fixed piece of work shaped like its hot
    path, runs after every operation.  The rescaled times read as seconds
    on a machine where the probe takes ``ref_s``, about its typical time on
    the 2-core Xeon the bounds were set on.  A mean, not a median: a pause
    that slows an operation tends to slow a probe next to it too, and the
    mean lets that probe scale the operation back.  The raw times are in
    the report line.
    """
    return [t * ref_s / statistics.mean(
                probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i, t in enumerate(times)]


def work_per_s(run: Run, walls: list[float]) -> float:
    """Median over the ops that passed their check of work per wall second.

    A median, not total work over total time: one op slowed by the machine
    then moves the figure no more than any other.  Failed ops stay in the
    latency samples but not here: they may stop part-way, so their wall
    time is not the time of the work they claim.
    """
    rates = [w / t for w, t in zip(run.credited, walls) if w]
    return statistics.median(rates) if rates else 0.0


def end_to_end(run: Run, setup: tuple[list, list]) -> tuple[dict, dict]:
    walls = rescale(run.walls, run.probes, run.workload.probe_ref_s)
    value, pct, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(rescale(*setup, SETUP_PROBE_REF_S)),
        "op_s.p50": statistics.median(walls),
        "op_s.tail": value,
        "work_per_s": work_per_s(run, walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"op_s.tail.percentile": pct, "op_s.tail.samples_beyond": beyond,
             "failed_ratio": run.failed / len(run.walls),
             "max_rel_dev": run.max_rel_dev,
             "probe_s.p50": statistics.median(run.probes),
             "raw.setup_s": setup[0], "raw.setup_probes": setup[1],
             "raw.setup_s.p50": statistics.median(setup[0]),
             "raw.op_s": run.walls, "raw.probes": run.probes,
             "raw.op_s.p50": statistics.median(run.walls),
             "raw.op_s.tail": tail(run.walls)[0],
             "raw.work_per_s": work_per_s(run, run.walls)}
    return metrics, extra


def per_layer(run: Run, tracer) -> tuple[dict, dict]:
    ops = len(run.traced_walls)
    layers = tracer.layer_self()
    advance_s = tracer.function_self("_kernels.advance")
    solves = tracer.function_calls("oracle.solve_care_dense")
    counts = tracer.counts
    rates = kernel_backends(run.workload.kernel_n, 100 if run.tiny else 2000)
    metrics = {f"{k.lstrip('_')}.self_s": v / ops for k, v in layers.items()}
    metrics.update({
        "analysis.sweep.self_s": tracer.function_self("analysis.sweep") / ops,
        "analysis.report.calls": tracer.function_calls("analysis.report") / ops,
        "analysis.report.self_s": tracer.function_self("analysis.report") / ops,
        "synthesis.spectra_per_point":
            sum(tracer.function_calls(f"synthesis.{name}") for name in (
                "lqr_riccati_spectrum", "kf_riccati_spectrum",
                "lqr_spectral_gain", "kf_spectral_gain")) / run.points,
        "oracle.solve_care_dense.calls": solves / ops,
        "oracle.newton_iters": counts["newton_iters"] / max(solves, 1),
        "analysis.build_closed_loop.self_s":
            tracer.function_self("analysis.build_closed_loop") / ops,
        "kernels.advance.calls":
            tracer.function_calls("_kernels.advance") / ops,
        "kernels.advance.steps": counts["steps"] / ops,
        "kernels.advance.self_s": advance_s / ops,
        "kernels.advance.steps_per_s":
            counts["steps"] / advance_s if advance_s else 0.0,
        "kernels.advance.steps_per_s.python": rates.get("python", 0.0),
        "kernels.flops_computed": counts["flops"] / ops,
        "kernels.bytes_computed": counts["bytes"] / ops,
        "kernels.gflops": counts["flops"] / advance_s / 1e9 if advance_s else 0.0,
        "trace.overhead_s": (statistics.median(run.traced_walls)
                             - statistics.median(run.walls)),
    })
    extra = {f"kernels.advance.steps_per_s.{name}": rate
             for name, rate in rates.items()}
    extra.update({"trace.op_s.p50": statistics.median(run.traced_walls),
                  "trace.untraced_op_s.p50": statistics.median(run.walls),
                  "trace.spans_kept": len(tracer.spans),
                  "trace.spans_dropped": tracer.dropped,
                  "kernels.counts": "computed from array shapes"})
    return metrics, extra


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
              tiny: bool = False) -> dict:
    """Run one benchmark and return {"report": ..., "result": ..., "run": Run}."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        if not trace:
            setup = measure_setup(2 if tiny else SETUP_REPEATS)
        run = Run(workload, seed, tiny, workdir)
        run.warm_up()
        if trace:
            tracer = tracing.Tracer()
            run.run(seconds, tracer)
            metrics, extra = per_layer(run, tracer)
            units = PER_LAYER_UNITS
            tracer.write_jsonl(OUT / f"trace-{workload_name}.jsonl")
        else:
            run.run(seconds)
            metrics, extra = end_to_end(run, setup)
            units = END_TO_END_UNITS
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": len(run.walls),
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    report = {"workload": workload_name, "work_unit": workload.work_unit, "trace": trace,
              "meta": metadata(seed), "extra": extra,
              "failures": run.failures[:20],
              **result}
    return {"report": report, "result": result, "run": run}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wavelqg" / "__init__.py").is_file():
        print(f"error: no wavelqg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wavelqg
    if Path(wavelqg.__file__).resolve().parent != SRC / "wavelqg":
        print(f"error: imported wavelqg from {wavelqg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
