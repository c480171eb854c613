"""End-to-end benchmark of the batch, threads and pipeline engines.

Run from the repository root::

    python3 perfbench/run.py --workload hot-keys --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds traced
rounds and prints the per-layer metrics.  The last line of standard
output is a JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--items`` shortens the stream (the self-test uses it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="stream length (default: the workload's)")
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    The shared-memory transport starts it; it would otherwise outlive
    this process by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    args = parse_args(argv, sorted(bench.WORKLOADS))

    try:
        return bench.main(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
