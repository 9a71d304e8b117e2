"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs in both modes and reports each metric of
BENCHMARK.json by name with its unit, that a seed always generates the same
argv lists, and that the per-layer self times of each traced operation sum
to no more than its wall time.  Exits 1 if any check fails.
"""

from __future__ import annotations

import itertools
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402  (needs wavelqg on the path)


def _argv_lists(name: str, seed: int) -> list:
    w = workloads.WORKLOADS[name]
    ops = itertools.islice(w.ops(seed, False), 3 * w.block)
    return [op.commands for op in ops]


def _failure_accounting() -> bool:
    """A nonzero exit or a raise counts as failed and earns no work."""
    r = run.Run(workloads.WORKLOADS["point-verify"], 0, True, run.ROOT)
    argv = (("verify",),)
    r._record(workloads.Op(0, argv, 8, 1, {}), 0.1, [1])
    r._record(workloads.Op(1, argv, 8, 1, {}), 0.1,
              ["ConvergenceError: no convergence"])
    return (r.failed, r.credited) == (2, [0.0, 0.0])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    checks = [("BENCHMARK.json names the implemented workloads",
               sorted(names) == sorted(workloads.WORKLOADS))]
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    checks.append(("tail of 1..100 is p90 with 10 beyond",
                   run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)))
    checks.append(("a failing op is counted and earns no work",
                   _failure_accounting()))
    for name in names:
        checks.append((f"{name}: same seed, same argv lists",
                       _argv_lists(name, 5) == _argv_lists(name, 5)))
        checks.append((f"{name}: another seed, other argv lists",
                       _argv_lists(name, 5) != _argv_lists(name, 6)))
        for trace in (False, True):
            out = run.benchmark(name, 3, 0.0, trace, tiny=True)
            result = out["result"]
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            checks.append((f"{name} trace={int(trace)}: every metric with "
                           "its unit", units == expected[trace]))
            checks.append((f"{name} trace={int(trace)}: outputs correct",
                           result["correct"] and result["attempted"] >= 1))
            if trace:
                layers = out["run"].op_layers
                checks.append((
                    f"{name}: layer self times of each op <= its wall time",
                    bool(layers) and all(0.0 < sum(s.values()) <= wall
                                         for wall, s in layers)))
    for label, ok in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
