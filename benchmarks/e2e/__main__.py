"""``PYTHONPATH=src python -m benchmarks.e2e`` — same as ``run.py``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
