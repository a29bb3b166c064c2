"""``python -m benchmarks.e2e``: the same command line as ``run.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.e2e.runner import main  # noqa: E402 - needs src/ on the path

sys.exit(main())
