"""Run ``xydiff serve`` with the per-layer probes installed.

Usage: ``python3 perfbench/serve_probed.py OUT.json serve [serve options]``

The traced serve-mixed run starts the server through this script.  It
installs :class:`probes.LayerProbe` before the server starts, zeroes the
probe on ``SIGUSR1`` (sent when the measured plan begins), and writes
the probe's totals to ``OUT.json`` when the server exits after
``SIGTERM``.
"""

from __future__ import annotations

import json
import signal
import sys

from common import SRC


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    import repro.cli
    from probes import LayerProbe

    probe = LayerProbe().install()
    signal.signal(signal.SIGUSR1, lambda *_: probe.reset())
    try:
        return repro.cli.main(argv)
    finally:
        probe.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(probe.to_dict(), handle)


if __name__ == "__main__":
    sys.exit(main())
