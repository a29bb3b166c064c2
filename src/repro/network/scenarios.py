"""The paper's evaluation scenarios as reproducible network builders.

Each :class:`Scenario` ties a field shape to the node count and average
degree reported in the paper (Fig. 1, Fig. 4, Fig. 5, Fig. 7) and knows how
to pick a radio range that hits the target degree.  Building a scenario
returns the largest connected component, matching the papers' standing
assumption of a connected network.

The registry :data:`PAPER_SCENARIOS` covers every network the paper shows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..geometry.polygon import Field
from ..geometry.shapes import make_field
from .deployment import skewed_deployment, uniform_deployment
from .graph import SensorNetwork, build_network
from .radio import RadioModel, UnitDiskRadio

__all__ = [
    "Scenario",
    "PAPER_SCENARIOS",
    "get_scenario",
    "estimate_range_for_degree",
    "build_scenario_network",
    "MegaFieldSpec",
    "MEGA_SCENARIOS",
    "get_mega_spec",
    "build_mega_network",
]


def estimate_range_for_degree(field: Field, n: int, target_degree: float,
                              boundary_correction: float = 1.06) -> float:
    """Radio range giving roughly *target_degree* under UDG.

    For density ``ρ = n / area`` an interior node sees ``ρ·πR²`` neighbours
    in expectation; nodes near boundaries see fewer, so the analytic radius
    is inflated by *boundary_correction* (calibrated empirically on the
    paper's shapes).
    """
    if n <= 0 or target_degree <= 0:
        raise ValueError("n and target_degree must be positive")
    density = n / field.area
    analytic = math.sqrt(target_degree / (density * math.pi))
    return analytic * boundary_correction


@dataclass(frozen=True)
class Scenario:
    """A named evaluation network configuration.

    Attributes mirror what the paper reports per figure: the shape, the node
    count and the average degree.  ``paper_ref`` records which figure the
    scenario reproduces.
    """

    name: str
    shape: str
    num_nodes: int
    target_avg_degree: float
    paper_ref: str
    skewed_axis: Optional[str] = None
    skewed_low_probability: float = 0.65

    def field(self) -> Field:
        return make_field(self.shape)

    def radio_range(self, field: Optional[Field] = None) -> float:
        field = field if field is not None else self.field()
        return estimate_range_for_degree(field, self.num_nodes, self.target_avg_degree)

    def build(self, seed: int = 0, radio: Optional[RadioModel] = None,
              num_nodes: Optional[int] = None) -> SensorNetwork:
        """Deploy, link and return the largest connected component.

        A custom *radio* overrides the UDG default (used by the QUDG and
        log-normal experiments, Figs. 6–7); *num_nodes* overrides the node
        count (used by the complexity sweep).
        """
        return build_scenario_network(self, seed=seed, radio=radio,
                                      num_nodes=num_nodes)

    def scaled(self, num_nodes: int) -> "Scenario":
        """The same scenario at a different size, keeping the density-degree
        relation (radio range recomputed from the degree target)."""
        return replace(self, num_nodes=num_nodes)


def build_scenario_network(scenario: Scenario, seed: int = 0,
                           radio: Optional[RadioModel] = None,
                           num_nodes: Optional[int] = None) -> SensorNetwork:
    """Materialise *scenario* into a connected :class:`SensorNetwork`."""
    rng = random.Random(seed)
    field = scenario.field()
    n = num_nodes if num_nodes is not None else scenario.num_nodes
    if scenario.skewed_axis is not None:
        positions = skewed_deployment(
            field, n, axis=scenario.skewed_axis,
            low_probability=scenario.skewed_low_probability, rng=rng,
        )
    else:
        positions = uniform_deployment(field, n, rng=rng)
    if radio is None:
        radio = UnitDiskRadio(
            estimate_range_for_degree(field, n, scenario.target_avg_degree)
        )
    network = build_network(positions, radio=radio, field=field, rng=rng)
    return network.largest_component_subgraph()


# Node counts and average degrees as reported in the paper's captions.
_PAPER_ROWS = [
    # (name, shape, n, avg_deg, ref)
    ("window", "window", 2592, 5.96, "Fig. 1"),
    ("one_hole", "one_hole", 2734, 6.54, "Fig. 4(a)"),
    ("flower", "flower", 2422, 5.75, "Fig. 4(b)"),
    ("smile", "smile", 2924, 6.35, "Fig. 4(c)"),
    ("music", "music", 1301, 6.50, "Fig. 4(d)"),
    ("airplane", "airplane", 2157, 7.86, "Fig. 4(e)"),
    ("cactus", "cactus", 2172, 6.70, "Fig. 4(f)"),
    ("star_hole", "star_hole", 2893, 8.99, "Fig. 4(g)"),
    ("spiral", "spiral", 2812, 9.60, "Fig. 4(h)"),
    ("two_holes", "two_holes", 3346, 6.79, "Fig. 4(i)"),
    ("star", "star", 1394, 6.59, "Fig. 4(j)"),
]

PAPER_SCENARIOS: Dict[str, Scenario] = {
    name: Scenario(name=name, shape=shape, num_nodes=n,
                   target_avg_degree=deg, paper_ref=ref)
    for name, shape, n, deg, ref in _PAPER_ROWS
}

# The density sweep of Fig. 5 reuses the window field at higher degrees.
FIG5_DEGREES: List[float] = [9.95, 14.24, 19.23, 22.72]

# The log-normal sweep of Fig. 7 reports these degrees for eps = 0..3.
FIG7_EPSILONS: List[float] = [0.0, 1.0, 2.0, 3.0]
FIG7_DEGREES: List[float] = [5.19, 6.92, 11.54, 20.69]

# The skewed-distribution study of Fig. 8.
FIG8_SCENARIOS: Dict[str, Scenario] = {
    "window_skewed": Scenario(
        name="window_skewed", shape="window", num_nodes=2592,
        target_avg_degree=8.15, paper_ref="Fig. 8(a)", skewed_axis="y",
    ),
    "star_skewed": Scenario(
        name="star_skewed", shape="star", num_nodes=1394 * 2,
        target_avg_degree=7.16, paper_ref="Fig. 8(b)", skewed_axis="x",
    ),
}


# ---------------------------------------------------------------------------
# Streaming mega-field generation (the sharded pipeline's scale scenarios).
# ---------------------------------------------------------------------------

def _splitmix64(x):
    """Vectorized splitmix64 finalizer over ``uint64`` arrays.

    The per-cell hash behind deterministic jitter: every cell's
    perturbation is a pure function of ``(seed, cell index)``, so any
    chunk of the field can be generated independently, in any order, and
    always lands on the same coordinates.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        x = (x + np.uint64(0x9E3779B97F4A7C15))
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class MegaFieldSpec:
    """A perturbed-grid mega-field, generated chunk by chunk.

    Nodes sit on a ``cols × rows`` grid (spacing × jitter perturbation)
    with cell-aligned rectangular *holes* punched out; links follow a
    unit-disk radio of range ``radius``.  Everything is a deterministic
    function of ``(spec, seed)`` and is emitted in row bands of
    ``chunk_rows`` rows, so peak generator state is O(band), never O(n²)
    — the property that lets a 100k+ node field stream into the sharded
    extractor on a laptop-class machine.

    ``election_hops`` is the recommended ``local_max_hops`` at this
    scale: with the paper's default election radius of 1 hop, site count
    grows linearly with area and the site-graph loop classification
    dominates; a wider election keeps the skeleton's feature resolution
    proportional to the field instead of to the sensor spacing.
    """

    name: str
    cols: int
    rows: int
    spacing: float = 1.0
    jitter: float = 0.35
    radius: float = 1.6
    #: cell-aligned holes, each ``(i0, j0, i1, j1)`` half-open in cells.
    holes: tuple = ()
    chunk_rows: int = 64
    election_hops: int = 8
    paper_ref: str = "scale-out extension"

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise ValueError("cols and rows must be positive")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")
        if self.jitter * 2 >= self.spacing:
            raise ValueError("jitter must stay below half the spacing")

    # -- cell bookkeeping (closed-form, no global materialization) --------

    def _row_kept(self, j: int) -> int:
        """How many cells of row *j* survive the holes."""
        kept = self.cols
        for (i0, j0, i1, j1) in self.holes:
            if j0 <= j < j1:
                kept -= max(0, min(i1, self.cols) - max(i0, 0))
        return kept

    def _cell_dropped(self, i, j):
        """Vectorized: True where cell ``(i, j)`` falls inside a hole."""
        import numpy as np

        dropped = np.zeros(np.broadcast(i, j).shape, dtype=bool)
        for (i0, j0, i1, j1) in self.holes:
            dropped |= (i >= i0) & (i < i1) & (j >= j0) & (j < j1)
        return dropped

    @property
    def num_nodes(self) -> int:
        """Exact node count (kept cells)."""
        return sum(self._row_kept(j) for j in range(self.rows))

    def scaled(self, factor: float) -> "MegaFieldSpec":
        """The same field shrunk to roughly ``factor`` × the node count.

        Both axes scale by √factor and the holes scale with them, so the
        shape (and hole topology, while holes stay non-degenerate) is
        preserved.
        """
        if not 0 < factor <= 1:
            raise ValueError("factor must be in (0, 1]")
        s = math.sqrt(factor)
        holes = tuple(
            (int(i0 * s), int(j0 * s), int(i1 * s), int(j1 * s))
            for (i0, j0, i1, j1) in self.holes
        )
        holes = tuple(h for h in holes if h[2] > h[0] and h[3] > h[1])
        return replace(self, cols=max(8, int(self.cols * s)),
                       rows=max(8, int(self.rows * s)), holes=holes)

    def params(self, **overrides):
        """Recommended :class:`~repro.core.SkeletonParams` at this scale."""
        from ..core.params import SkeletonParams

        overrides.setdefault("local_max_hops", self.election_hops)
        return SkeletonParams(**overrides)

    # -- streaming emission ------------------------------------------------

    def iter_chunks(self, seed: int = 0):
        """Yield ``(first_id, positions)`` per row band, in order.

        ``positions`` is an ``(m, 2)`` float64 array of the band's kept
        nodes in global id order; ``first_id`` is the id of its first
        node.  Ids number kept cells row-major, so every chunk knows its
        global ids without any cross-chunk state.
        """
        import numpy as np

        base = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        first_id = 0
        for j_lo in range(0, self.rows, self.chunk_rows):
            j_hi = min(j_lo + self.chunk_rows, self.rows)
            jj, ii = np.meshgrid(np.arange(j_lo, j_hi), np.arange(self.cols),
                                 indexing="ij")
            keep = ~self._cell_dropped(ii, jj)
            ii, jj = ii[keep], jj[keep]
            linear = (jj.astype(np.uint64) * np.uint64(self.cols)
                      + ii.astype(np.uint64))
            h = _splitmix64(linear ^ base)
            ux = (h >> np.uint64(32)).astype(np.float64) / 2.0 ** 32
            uy = (h & np.uint64(0xFFFFFFFF)).astype(np.float64) / 2.0 ** 32
            pos = np.empty((len(ii), 2), dtype=np.float64)
            pos[:, 0] = ii * self.spacing + (2.0 * ux - 1.0) * self.jitter
            pos[:, 1] = jj * self.spacing + (2.0 * uy - 1.0) * self.jitter
            yield first_id, pos
            first_id += len(ii)

    def build(self, seed: int = 0) -> SensorNetwork:
        """Materialize the full network via :func:`build_mega_network`."""
        return build_mega_network(self, seed=seed)


def build_mega_network(spec: MegaFieldSpec, seed: int = 0) -> SensorNetwork:
    """Assemble a mega-field :class:`SensorNetwork` chunk by chunk.

    Edge discovery runs per row band over the band plus a fringe of
    previously-emitted rows within radio range, with each undirected edge
    assigned to the band of its lower-id endpoint — O(band) working state
    and O(n + E) total, against the O(n²) a naive all-pairs build would
    cost.  The node count is exact (``spec.num_nodes``): unlike the
    random-deployment scenarios there is no largest-component truncation;
    the sharded pipeline handles any stray disconnected pocket the holes
    might pinch off exactly like the monolithic one.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    from ..geometry.primitives import Point

    chunks = []
    adjacency: List[List[int]] = []
    # Fringe: previously emitted rows that can still link into new bands.
    fringe_pos = np.empty((0, 2), dtype=np.float64)
    fringe_ids = np.empty(0, dtype=np.int64)
    reach = spec.radius + 2.0 * spec.jitter
    for first_id, pos in spec.iter_chunks(seed=seed):
        m = len(pos)
        ids = np.arange(first_id, first_id + m, dtype=np.int64)
        adjacency.extend([] for _ in range(m))
        if m:
            band_pos = np.concatenate([fringe_pos, pos])
            band_ids = np.concatenate([fringe_ids, ids])
            tree = cKDTree(band_pos)
            pairs = tree.query_pairs(r=spec.radius, output_type="ndarray")
            if len(pairs):
                u = band_ids[pairs[:, 0]]
                v = band_ids[pairs[:, 1]]
                # Keep only pairs touching the new band; fringe-internal
                # pairs were emitted by an earlier band.
                new_pair = (u >= first_id) | (v >= first_id)
                for a, b in zip(u[new_pair], v[new_pair]):
                    adjacency[int(a)].append(int(b))
                    adjacency[int(b)].append(int(a))
            # Next band can only reach back ``reach`` in y.
            y_min = pos[:, 1].max() - reach if m else -np.inf
            keep_f = band_pos[:, 1] >= y_min
            fringe_pos = band_pos[keep_f]
            fringe_ids = band_ids[keep_f]
        chunks.append(pos)
    all_pos = (np.concatenate(chunks) if chunks
               else np.empty((0, 2), dtype=np.float64))
    positions = [Point(float(x), float(y)) for x, y in all_pos]
    return SensorNetwork(positions, adjacency,
                        radio=UnitDiskRadio(spec.radius))


#: Registered mega-fields: a CI-smoke size and a 104,300-node field.
MEGA_SCENARIOS: Dict[str, MegaFieldSpec] = {
    "mega_smoke": MegaFieldSpec(
        name="mega_smoke", cols=48, rows=40, chunk_rows=16,
        holes=((10, 10, 20, 20), (28, 24, 40, 34)), election_hops=4,
    ),
    "mega_100k": MegaFieldSpec(
        name="mega_100k", cols=360, rows=330,
        holes=((60, 60, 140, 140), (200, 170, 290, 260)),
        election_hops=8,
    ),
}


def get_mega_spec(name: str) -> MegaFieldSpec:
    """Look up a registered mega-field spec."""
    try:
        return MEGA_SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown mega scenario {name!r}; "
                       f"known: {sorted(MEGA_SCENARIOS)}") from None


def get_scenario(name: str) -> Scenario:
    """Look up a paper scenario (including the Fig. 8 skewed variants)."""
    if name in PAPER_SCENARIOS:
        return PAPER_SCENARIOS[name]
    if name in FIG8_SCENARIOS:
        return FIG8_SCENARIOS[name]
    known = sorted(PAPER_SCENARIOS) + sorted(FIG8_SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; known: {known}")
