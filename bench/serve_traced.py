"""Run ``ktiler serve`` with the layer probes installed.

    python bench/serve_traced.py SPANS.json serve --port 0 [serve options]

Installs the probes of :mod:`probes`, then calls
``repro.cli.main(["serve", ...])`` in this process.  When the daemon
shuts down (SIGTERM, handled by ``ktiler serve`` itself), the recorded
spans are written to ``SPANS.json`` as Chrome-trace JSON.  ``src`` must
be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

import probes


def main(argv: list) -> int:
    spans_path, *cli_args = argv
    recorder = probes.SpanRecorder().install()
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
