"""Shared fixtures: small, deterministic networks reused across the suite.

Session-scoped because network construction and extraction dominate test
time; all fixtures are read-only by convention.
"""

import os
import random
from pathlib import Path
from typing import List

import pytest

try:
    import repro  # noqa: F401 - probe the src/ layout before anything else
except ModuleNotFoundError as exc:  # pragma: no cover - misconfiguration aid
    if (exc.name or "").split(".")[0] == "repro":
        raise ModuleNotFoundError(
            "cannot import 'repro': the repo uses a src/ layout, so run the "
            "suite with PYTHONPATH=src (tier-1 convention: "
            "PYTHONPATH=src python -m pytest -x -q)") from exc
    raise

from repro.core import SkeletonExtractor, SkeletonNodeProtocol
from repro.geometry import make_field
from repro.geometry.primitives import Point
from repro.network import SensorNetwork, UnitDiskRadio, build_network
from repro.network.deployment import uniform_deployment
from repro.runtime import NodeProtocol

try:
    from hypothesis import settings as _hyp_settings

    # CI runs must be reproducible run-to-run: derandomize pins hypothesis
    # to its deterministic example stream, so a red job is always
    # re-debuggable locally with the same failures.
    _hyp_settings.register_profile("ci", derandomize=True)
    # A deeper deterministic budget for tests that leave max_examples to
    # the profile (the stage-4 oracle job sets
    # REPRO_HYPOTHESIS_PROFILE=thorough); tier-1 keeps the default.
    _hyp_settings.register_profile("thorough", derandomize=True,
                                   max_examples=500)
    if os.environ.get("CI"):
        _hyp_settings.load_profile("ci")
    if os.environ.get("REPRO_HYPOTHESIS_PROFILE"):
        _hyp_settings.load_profile(os.environ["REPRO_HYPOTHESIS_PROFILE"])
except ImportError:  # pragma: no cover - hypothesis is a dev extra
    pass


def build_test_network(shape: str, n: int, radio_range: float, seed: int = 3):
    """Deterministic small network on a named field."""
    field = make_field(shape)
    rng = random.Random(seed)
    positions = uniform_deployment(field, n, rng=rng)
    network = build_network(
        positions, radio=UnitDiskRadio(radio_range), field=field, rng=rng
    )
    return network.largest_component_subgraph()


def chain(n: int):
    """Nodes 0..n-1 on a line, each linked to its immediate neighbours."""
    positions = [Point(float(i), 0.0) for i in range(n)]
    return build_network(positions, radio=UnitDiskRadio(1.1))


def linked(n: int, edges):
    """*n* nodes with exactly the given links (positions play no part in
    the message-passing protocols)."""
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return SensorNetwork([Point(float(i), 0.0) for i in range(n)], adjacency)


class PingOnce(NodeProtocol):
    """Broadcasts once at start; counts receptions.  For scheduler tests
    that need traffic but no protocol logic."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = 0

    def on_start(self, api):
        api.broadcast("ping")

    def on_message(self, message, api):
        self.received += 1


def skeleton_protocols(params, async_profile=None):
    """A scheduler's protocol factory: the distributed pipeline's
    :class:`SkeletonNodeProtocol` on every node."""
    return lambda v: SkeletonNodeProtocol(v, params, async_profile=async_profile)


def corrupt_cache_entries(cache_dir, stage: str, limit: int = 1) -> List[str]:
    """Flip the final payload byte of up to *limit* on-disk cache entries
    of *stage*, leaving their recorded digests stale.

    A later read of a corrupted entry must fail the
    :mod:`repro.perf.cache` digest check, be quarantined and be
    recomputed, never deserialized.  Files are chosen in sorted-name
    order, so reruns hit the same entries, and the corrupted file names
    are returned.
    """
    corrupted: List[str] = []
    for path in sorted(Path(cache_dir).glob(f"{stage}-*.pkl")):
        if len(corrupted) >= limit:
            break
        blob = path.read_bytes()
        if not blob:
            continue
        path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        corrupted.append(path.name)
    return corrupted


@pytest.fixture(scope="session")
def rectangle_network():
    return build_test_network("rectangle", 400, 5.0, seed=3)


@pytest.fixture(scope="session")
def annulus_network():
    return build_test_network("annulus", 600, 5.0, seed=3)


@pytest.fixture(scope="session")
def cross_network():
    return build_test_network("cross", 500, 5.0, seed=3)


@pytest.fixture(scope="session")
def rectangle_result(rectangle_network):
    return SkeletonExtractor().extract(rectangle_network)


@pytest.fixture(scope="session")
def annulus_result(annulus_network):
    return SkeletonExtractor().extract(annulus_network)
