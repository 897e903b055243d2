"""The repository's benchmark: one seeded workload, checked, every metric printed.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 50 --trace 0

Workloads: ``campaign`` (a TestingCampaign replayed day by day) and
``serve_loop`` (Env2VecService under a paced open loop, then drains).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pairs
of untraced and traced repetitions (the traced ones with per-layer timing
shims) and prints the per-layer metrics. Workload names and every
metric's name and unit are read from ``BENCHMARK.json`` at the checkout
root.

BLAS is pinned to one thread in this process. The
program is imported from ``src/`` of the checkout; a directory without it
fails before printing a result. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Read when numpy loads its BLAS, so set before any numpy import.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared() -> dict:
    """Workloads and metrics (names, units) as ``BENCHMARK.json`` declares them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, flush=True)


def main(argv=None) -> int:
    spec = declared()
    args = parse_args(spec, argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import host

    envelope = host.envelope(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    log("envelope " + json.dumps(envelope, sort_keys=True))
    if envelope["blas"]["threads"] not in (1, "unknown"):
        print(f"BLAS runs {envelope['blas']['threads']} threads; expected 1", file=sys.stderr)
        return 2

    ticks_before = host.cpu_ticks()
    if args.workload == "campaign":
        import campaigns

        outcome = campaigns.run(args.seed, args.seconds, bool(args.trace), log)
    else:
        import serving

        outcome = serving.run(args.seed, args.seconds, bool(args.trace), log)
    outcome["detail"]["host_steal_share"] = host.steal_share(ticks_before, host.cpu_ticks())

    log("checks " + json.dumps(outcome["checks"], sort_keys=True))
    log("detail " + json.dumps(outcome["detail"], sort_keys=True))
    values = outcome["layers"] if args.trace else outcome["metrics"]
    metrics = {entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
               for entry in spec["per_layer" if args.trace else "end_to_end"]}
    for name, entry in metrics.items():
        log(f"  {name:34s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({
        "correct": all(outcome["checks"].values()),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
