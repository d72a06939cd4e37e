"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload crawl-ingest --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload's fixed plan once untraced and once with
the per-layer probes and the program's own tracing hooks on, and prints
the per-layer metrics.  The last line of standard output is the result
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it describes the run (input properties, sample counts, the delta chain
hash, the CPU the whole run is confined to).  The exit code is 0 on
success, 1 when a correctness check failed, 2 when the run could not be
made.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import sys
import traceback

#: Workload name -> module implementing ``run`` and ``run_traced``.
WORKLOADS = {
    "crawl-ingest": "crawl_ingest",
    "serve-mixed": "serve_mixed",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the workloads' cleanup (stopping the
    # server process, removing scratch files) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import SRC, CheckFailed, emit, metrics_block, pin_to_one_cpu

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    module = importlib.import_module(WORKLOADS[args.workload])
    runner = module.run_traced if args.trace else module.run
    cpu = pin_to_one_cpu()
    try:
        result = runner(args.seed, args.seconds)
    except CheckFailed as error:
        print(f"correctness check failed: {error}", file=sys.stderr)
        emit({"correct": False, "attempted": 1, "failed": 1, "metrics": {}})
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    info = dict(result.get("info", {}), workload=args.workload,
                seed=args.seed, trace=args.trace, cpu=cpu)
    emit({"run": info})
    emit({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result.get("failed", 0)),
        "metrics": metrics_block(result["metrics"]),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
