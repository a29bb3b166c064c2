"""Artifact-cache maintenance from the command line.

``fsck`` verifies every on-disk entry's integrity digest, quarantining
(or with ``--dry-run`` just reporting) anything that fails::

    python -m repro.perf fsck /tmp/repro_cache --deep

Exit status: 0 when the store is clean, 1 when corruption was found, 2
when the path is not an existing directory — scriptable as a health
check before reusing a long-lived cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .cache import ArtifactCache


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Artifact-cache maintenance utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fsck = sub.add_parser(
        "fsck", help="verify digests of every on-disk cache entry")
    fsck.add_argument("cache_dir", help="the cache directory to check")
    fsck.add_argument("--deep", action="store_true",
                      help="also unpickle each verified payload")
    fsck.add_argument("--dry-run", action="store_true",
                      help="report corruption without quarantining")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # ArtifactCache creates a missing directory; a health check must not
    # pass on a mistyped path by checking the empty store it just made.
    if not os.path.isdir(args.cache_dir):
        print(f"error: {args.cache_dir} is not an existing directory",
              file=sys.stderr)
        return 2
    cache = ArtifactCache(disk_dir=args.cache_dir)
    counts = cache.fsck(deep=args.deep, quarantine=not args.dry_run)
    action = "found (dry run)" if args.dry_run else "quarantined"
    print(f"fsck {args.cache_dir}: {counts['ok']} ok, "
          f"{counts['corrupt']} corrupt ({counts['quarantined']} {action})")
    if counts["corrupt"] and not args.dry_run:
        print(f"quarantined entries kept under {cache.quarantine_dir}")
    return 1 if counts["corrupt"] else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
