"""Golden stage-4 digests: the loop analysis and refined skeleton of fixed
inputs must not move.

Stage 4 (``identify_loops``) is a chain of exact optimisations over the
networkx enumeration it replaced; every one of them must leave its output
bit for bit as it was.  The committed snapshot
(``tests/golden/stage4_digests.json``) pins one sha256 per input over
every ``Loop`` field, the kept and removed site pairs, and the refined
skeleton's nodes and edges.  The inputs are the 11 paper scenarios at
seed 1 with 500 nodes, and the ``mega_100k`` field scaled to 0.05 (seed
0) with its spec's recommended parameters.

Regenerate (only after an intentional change to stage 4's output) by
running::

    PYTHONPATH=src python -m tests.test_stage4_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import PAPER_SCENARIOS
from repro.core import extract_skeleton
from repro.network import get_mega_spec

GOLDEN_PATH = Path(__file__).parent / "golden" / "stage4_digests.json"
PAPER_SEED, PAPER_NODES = 1, 500
MEGA_SPEC, MEGA_SCALE, MEGA_SEED = "mega_100k", 0.05, 0


def _extract(name: str):
    """One extraction of the input the snapshot calls *name*."""
    if name in PAPER_SCENARIOS:
        network = PAPER_SCENARIOS[name].build(seed=PAPER_SEED,
                                              num_nodes=PAPER_NODES)
        return extract_skeleton(network)
    spec = get_mega_spec(MEGA_SPEC).scaled(MEGA_SCALE)
    return extract_skeleton(spec.build(seed=MEGA_SEED), spec.params())


def _pair(pair):
    return None if pair is None else (int(pair[0]), int(pair[1]))


def stage4_digest(result) -> str:
    """sha256 over every ``Loop`` field, the kept and removed pairs and
    the refined skeleton's nodes and edges."""
    h = hashlib.sha256()

    def put(label, value):
        h.update(label.encode())
        h.update(repr(value).encode())

    analysis = result.loop_analysis
    for loop in analysis.loops:
        put("loop", ([int(v) for v in loop.sites],
                     [int(v) for v in loop.ordered],
                     bool(loop.is_fake),
                     [int(v) for v in loop.witnesses],
                     repr(loop.iso_ratio),
                     _pair(loop.removed_pair)))
    put("kept_pairs", sorted(_pair(p) for p in analysis.kept_pairs))
    put("removed_pairs", sorted(_pair(p) for p in analysis.removed_pairs))
    put("skeleton_nodes", sorted(int(v) for v in result.skeleton.nodes))
    put("skeleton_edges", sorted(tuple(sorted((int(u), int(v))))
                                 for u, v in result.skeleton.edges))
    return h.hexdigest()


def _inputs():
    return sorted(PAPER_SCENARIOS) + [f"{MEGA_SPEC}@{MEGA_SCALE}"]


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_snapshot_covers_every_input():
    assert sorted(_load_golden()["digests"]) == sorted(_inputs())


@pytest.mark.parametrize("name", _inputs())
def test_stage4_digest_matches_golden(name):
    assert stage4_digest(_extract(name)) == _load_golden()["digests"][name]


def _regenerate() -> None:
    golden = {
        "paper": {"seed": PAPER_SEED, "num_nodes": PAPER_NODES},
        "mega": {"spec": MEGA_SPEC, "scale": MEGA_SCALE, "seed": MEGA_SEED},
        "digests": {name: stage4_digest(_extract(name))
                    for name in _inputs()},
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    _regenerate()
