"""Head-to-head comparison of skeleton extractors (E-BASE).

Runs the proposed boundary-free algorithm alongside MAP and CASE (with
ground-truth or detected boundaries) over one network and grades everything
with the same quality metrics, reproducing the paper's positioning: the
baselines need boundary input the proposed method does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines import (
    connectivity_boundary_nodes,
    extract_case_skeleton,
    extract_map_skeleton,
    geometric_boundary_nodes,
)
from ..core import SkeletonExtractor, SkeletonParams
from ..geometry.medial_axis import MedialAxisApproximation, approximate_medial_axis
from ..network.graph import SensorNetwork
from .metrics import SkeletonQuality, evaluate_skeleton, preserved_holes

__all__ = ["ComparisonRow", "compare_extractors"]


@dataclass(frozen=True)
class ComparisonRow:
    """One extractor's graded output."""

    method: str
    needs_boundary_input: bool
    quality: SkeletonQuality


def compare_extractors(
    network: SensorNetwork,
    params: Optional[SkeletonParams] = None,
    medial_axis: Optional[MedialAxisApproximation] = None,
    include_detected_boundaries: bool = True,
) -> List[ComparisonRow]:
    """Run proposed / MAP / CASE over *network* and grade each skeleton.

    MAP and CASE run twice when ``include_detected_boundaries``: once with
    ground-truth boundaries (their stated assumption) and once with the
    connectivity-based detector, showing the degradation the paper's
    introduction argues motivates boundary-freeness.
    """
    if network.field is None:
        raise ValueError("comparison needs the deployment field for grading")
    if medial_axis is None:
        medial_axis = approximate_medial_axis(network.field)
    holes = preserved_holes(network)

    rows: List[ComparisonRow] = []

    proposed = SkeletonExtractor(params).extract(network)
    rows.append(
        ComparisonRow(
            method="proposed",
            needs_boundary_input=False,
            quality=evaluate_skeleton(
                network, proposed.skeleton.nodes, proposed.skeleton.edges,
                medial_axis=medial_axis, preserved_hole_count=holes,
            ),
        )
    )

    boundary_inputs = [("true", geometric_boundary_nodes(network))]
    if include_detected_boundaries:
        boundary_inputs.append(("detected", connectivity_boundary_nodes(network)))

    for label, boundary in boundary_inputs:
        if not boundary:
            continue
        map_result = extract_map_skeleton(network, boundary)
        rows.append(
            ComparisonRow(
                method=f"map[{label}]",
                needs_boundary_input=True,
                quality=evaluate_skeleton(
                    network, map_result.skeleton.nodes, map_result.skeleton.edges,
                    medial_axis=medial_axis, preserved_hole_count=holes,
                ),
            )
        )
        case_result = extract_case_skeleton(network, boundary)
        rows.append(
            ComparisonRow(
                method=f"case[{label}]",
                needs_boundary_input=True,
                quality=evaluate_skeleton(
                    network, case_result.skeleton.nodes, case_result.skeleton.edges,
                    medial_axis=medial_axis, preserved_hole_count=holes,
                ),
            )
        )
    return rows
