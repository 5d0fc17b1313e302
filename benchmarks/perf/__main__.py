"""``PYTHONPATH=src python -m benchmarks.perf`` — see :mod:`benchmarks.perf.run`."""

import sys

from benchmarks.perf.run import cli

sys.exit(cli())
