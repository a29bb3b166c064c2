"""``python -m repro <command>``: see :mod:`repro.cli`."""
from .cli import main

raise SystemExit(main())
