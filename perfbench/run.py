"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload validate_cold --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with
its unit, the service latency sample counts, and the run's provenance.
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _isolate_environment(workdir: Path) -> None:
    """Drop inherited ``REPRO_*`` settings; the run gets its own cache.

    Observability and telemetry stay off unless the traced run turns
    span collection on for its traced passes.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "cache")


def _pin_to_one_cpu():
    """Run on one CPU; returns the CPUs allowed before, or None.

    The service's threads and pool workers, and the fresh-process
    import, inherit the pin, so the yardstick times the core that does
    all the timed work.  With one closed-loop client only one of them
    runs at a time.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return cpus


def provenance(numpy_version: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders ops and picks the sampled checks")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="trace RNG seed (default: each profile's own "
                             "seed); set it for a held-out validation run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is a smoke run, not a measurement")
    return parser.parse_args(argv)


def run(argv=None) -> dict:
    """Run one workload; returns the printed result plus its digest."""
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    workdir = ROOT / ".perfbench_work" / f"{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    _isolate_environment(workdir)
    cpus = _pin_to_one_cpu()
    try:
        return _run(args, workdir)
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, workdir: Path) -> dict:
    import numpy

    from perfbench import report, workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of "
                         + ", ".join(workloads.WORKLOADS))
    bench = workloads.Run(
        seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        size=workloads.SIZES[args.size], workload_seed=args.workload_seed,
        workdir=workdir)
    workload = workloads.WORKLOADS[args.workload](bench)
    service, setup, imports = workloads.set_up(bench, workload, SRC)
    try:
        records = workloads.run_rounds(bench, workload, service)
        anchor = workload.anchor()
        workloads.check_passes(bench, workload, records)
        workload.checks()
    finally:
        service.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if bench.traced:
        metrics = report.per_layer(bench, records, anchor, imports)
    else:
        metrics = report.end_to_end(bench, records, anchor, setup,
                                    peak_rss_mb)
    result = {
        "correct": not bench.failed,
        "attempted": bench.attempted,
        "failed": len(bench.failed),
        "metrics": metrics,
    }
    print("provenance " + json.dumps(provenance(numpy.__version__),
                                     sort_keys=True))
    for line in report.describe(bench, workload, records):
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    sys.stdout.flush()
    return dict(result, digest=records[-1]["fingerprint"])


if __name__ == "__main__":
    run()
