"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with nothing wrapped.  ``--trace 1`` is a separate run that records spans
around the calls into each layer (see ``perfbench/tracing.py``) and reports
the per-layer metrics; layers a workload does not exercise read 0.

An operation ("op") is one ``solve_case`` call on ``cold-solve``, one
``advance(u, 1)`` step on ``transient-mp`` and one job on ``service-mix``.

* ``setup_s``: from the start of this script to the first timed operation
  (imports, case assembly, solver construction or service start), with the
  workload's own set-up repeated three times and its median counted.
* ``op_p50_ms``: median op latency.  ``cold-solve`` and ``transient-mp``
  take each kind's (preconditioner's) median and average them over kinds;
  ``service-mix`` times each job from submission to its terminal status.
* ``op_tail_ms``: the highest percentile of op latency with at least ten
  samples beyond it; the slowest kind's median when a run has too few ops.
* ``capacity_ops_s``: ops completed per second of busy time.
* ``iters``: FGMRES iterations over a fixed part of the run; repeats
  exactly for a given seed.
* ``cpu_s``: CPU seconds of this process and its rank processes per op.
* ``peak_rss_mb``: peak resident memory of this process.

Times and rates are given at a reference host speed: the hosts this runs on
are shared and their speed swings by up to half within a minute, so each
measured interval is scaled by a fixed probe timed next to it (see
``perfbench.common.HostSpeed``).  Per-layer times are raw wall times;
``comm.*`` counts and ``kernels.flops`` are computed by the cost ledger,
not measured.

The last line of standard output is the result object; the line before it
carries the run's provenance, sample counts and any failed checks.  Runs
with a ``REPRO_*`` environment variable set are refused, so every number
describes the default configuration.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("cold-solve", "transient-mp", "service-mix")


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _refuse(f"no repro sources under {ROOT / 'src'}")
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        _refuse(f"refusing to measure a non-default configuration: {overrides}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import cold_solve, service_mix, transient_mp
    from perfbench.common import HostSpeed, fresh_dir, provenance
    from perfbench.tracing import Tracer

    module = {"cold-solve": cold_solve, "transient-mp": transient_mp,
              "service-mix": service_mix}[args.workload]
    workdir = fresh_dir(OUT / f"work-{os.getpid()}")
    try:
        if args.trace:
            tracer = Tracer()
            result = module.trace(args.seed, args.seconds, tracer, workdir)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            result.put("fail_frac", result.failed / max(result.attempted, 1), "ratio")
            wanted = spec["per_layer"]
        else:
            result = module.run(args.seed, args.seconds, T_START, workdir, HostSpeed())
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, not_applicable = {}, []
    for m in wanted:
        if m["name"] in result.metrics:
            value, unit = result.metrics[m["name"]]
            if unit != m["unit"]:
                raise ValueError(f"{m['name']}: unit {unit!r}, declared {m['unit']!r}")
        elif args.trace:
            value = 0.0
            not_applicable.append(m["name"])
        else:
            raise ValueError(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps({
        "provenance": provenance(args.workload, args.seed),
        "info": result.info,
        "not_applicable": not_applicable,
        "problems": result.problems,
    }, default=float))
    print(json.dumps({
        "correct": result.attempted > 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
