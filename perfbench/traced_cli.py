"""Run the ``python -m repro`` CLI with the layer spans installed.

Usage::

    python perfbench/traced_cli.py TRACE_DIR ARG...

Installs :mod:`layers` (writing ``spans-<pid>-<clock>.json`` files into
TRACE_DIR), then runs ``repro.cli.main(ARG...)`` exactly as
``python -m repro ARG...`` would.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402


def main() -> int:
    directory, argv = sys.argv[1], sys.argv[2:]
    layers.install(directory)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        layers.RECORDER.flush()


if __name__ == "__main__":
    sys.exit(main())
