"""Entry point: ``python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
[--seconds S] [--trace 0|1] [--out PATH]`` from the repository root.

The program is imported from ``src/`` next to this directory; there is
nothing to build.  See ``README.md`` here for the workloads and metrics.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    _root = Path(__file__).resolve().parents[2]
    # Replace the script's own directory: the package is imported by its
    # full name, the program from the src/ layout.
    sys.path[0:1] = [str(_root / "src"), str(_root)]
    from benchmarks.e2e.runner import main

    sys.exit(main())
