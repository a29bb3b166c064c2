"""Cross-run skeleton stability (Figs. 5–8).

The paper's density, radio-model and distribution studies all argue the
same thing: the extracted skeleton barely moves when the network changes.
We quantify that with symmetric point-set distances between the skeleton
node positions of two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..geometry.primitives import Point
from ..network.graph import SensorNetwork

__all__ = ["StabilityScore", "skeleton_stability", "stability_curve"]


@dataclass(frozen=True)
class StabilityScore:
    """Symmetric distances between two skeleton point sets.

    Attributes:
        mean_distance: average nearest-neighbour distance, symmetrised.
        hausdorff: max nearest-neighbour distance, symmetrised.
    """

    mean_distance: float
    hausdorff: float


def _positions(network: SensorNetwork, nodes: Iterable[int]) -> np.ndarray:
    return np.array([[network.positions[v].x, network.positions[v].y] for v in nodes])


def skeleton_stability(network_a: SensorNetwork, nodes_a: Iterable[int],
                       network_b: SensorNetwork, nodes_b: Iterable[int]) -> StabilityScore:
    """Compare two skeletons extracted from (possibly different) networks
    over the same field.

    Low scores mean the skeleton is stable under whatever differs between
    the two runs (density, radio model, node distribution) — the property
    Figs. 5–8 claim.
    """
    a = _positions(network_a, nodes_a)
    b = _positions(network_b, nodes_b)
    if len(a) == 0 or len(b) == 0:
        return StabilityScore(mean_distance=float("inf"), hausdorff=float("inf"))
    from scipy.spatial import cKDTree

    tree_a = cKDTree(a)
    tree_b = cKDTree(b)
    d_ab, _ = tree_b.query(a)
    d_ba, _ = tree_a.query(b)
    mean = (float(np.mean(d_ab)) + float(np.mean(d_ba))) / 2.0
    hausdorff = max(float(np.max(d_ab)), float(np.max(d_ba)))
    return StabilityScore(mean_distance=mean, hausdorff=hausdorff)


def stability_curve(rows: Sequence[Mapping[str, object]],
                    rate_key: str = "jitter",
                    value_key: str = "stability_mean",
                    scenario_key: str = "scenario",
                    ) -> Dict[str, List[Tuple[float, float]]]:
    """Aggregate a degradation sweep into per-scenario stability curves.

    *rows* holds one mapping per (scenario, rate) — e.g. the E-ASYNC
    jitter sweep — with a perturbation magnitude under *rate_key* and a
    stability distance under *value_key*.  Returns ``scenario -> [(rate,
    value), ...]`` sorted by rate, the "skeleton drift vs perturbation"
    curve whose flat prefix and rise locate the degradation knee.
    """
    curves: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        curves.setdefault(str(row[scenario_key]), []).append(
            (float(row[rate_key]), float(row[value_key]))  # type: ignore[arg-type]
        )
    return {name: sorted(points) for name, points in curves.items()}
