"""Synthetic benchmarks: overlap-controlled ground truth plus sampled features.

Ground-truth hypergraphs are planted edge by edge. Each new edge takes some of
its nodes from the already-covered pool and the rest from untouched nodes; the
shared fraction is tuned by bisection until the measured overlap rate lands
within tolerance of the target. Feature matrices then come from the Gaussian
model over the planted structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DomainError, Hypergraph, InfeasibleError, build_hypergraph
from .probmodel import GaussianModelConfig, incidence_laplacian, sample_features

OVERLAP_TOLERANCE = 0.05

_ATTEMPTS = 50
_BISECT_STEPS = 25
_DUPLICATE_RETRIES = 20


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic dataset.

    edge_spec maps hyperedge size to how many edges of that size to plant,
    e.g. {8: 12} for a uniform hypergraph. dim defaults to a desk-scale value;
    benchmark runs pass the full fidelity dimension explicitly.
    """

    n: int
    edge_spec: Mapping[int, int]
    target_overlap: float
    sigma: float = 1e-3
    dim: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"node count must be >= 1, got {self.n}")
        spec = {int(k): int(c) for k, c in dict(self.edge_spec).items()}
        if not spec:
            raise DomainError("edge_spec must request at least one hyperedge")
        for k, c in spec.items():
            if k < 2:
                raise DomainError(f"hyperedge size {k} is too small; sizes start at 2")
            if c < 1:
                raise DomainError(f"edge count for size {k} must be >= 1, got {c}")
        object.__setattr__(self, "edge_spec", spec)
        if not 0.0 <= self.target_overlap < 1.0:
            raise DomainError(
                f"target overlap must lie in [0, 1), got {self.target_overlap}"
            )
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.dim < 1:
            raise DomainError(f"feature dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    truth: Hypergraph
    x_nodes: np.ndarray
    x_edges: np.ndarray
    config: SynthConfig
    achieved_overlap: float


def overlap_rate(h: Hypergraph) -> tuple[np.ndarray, float]:
    """Per-edge fraction of nodes that sit in at least two edges, and its mean."""
    if h.m == 0:
        raise DomainError("hypergraph has no hyperedges")
    membership = np.bincount([v for e in h.edges for v in e], minlength=h.n)
    per_edge = np.array([float(np.mean(membership[list(e)] >= 2)) for e in h.edges])
    return per_edge, float(per_edge.mean())


def _donor_pool(exclusive: np.ndarray, sizes: np.ndarray, shared: int) -> np.ndarray:
    """Indices of the planted edges a new edge may borrow its whole shared block from.

    A donor must still hold at least ``shared`` exclusive nodes (nodes in no
    other edge); among those, only the least-entangled ones, with the fewest
    nodes shared elsewhere, qualify. Borrowing from a single donor grows pair
    and chain patterns, where every node sits in at most two edges, which
    keeps any overlap level structurally recoverable.
    """
    able = np.flatnonzero(exclusive >= shared)
    if len(able) == 0:
        return able
    burden = sizes[able] - exclusive[able]
    return able[burden == burden.min()]


def _draw_shared(
    edges: list[tuple[int, ...]],
    donors: np.ndarray,
    degree: np.ndarray,
    covered: np.ndarray,
    shared: int,
    rng: np.random.Generator,
) -> list[int]:
    """Pick the shared nodes for a new edge: from one random donor if there is any.

    Only when no donor exists does the draw fall back to the lowest-degree
    covered nodes, ties broken at random.
    """
    if len(donors):
        donor = np.array(edges[donors[rng.integers(len(donors))]])
        exclusive = donor[degree[donor] == 1]
        return exclusive[rng.permutation(len(exclusive))[:shared]].tolist()
    perm = rng.permutation(len(covered))
    ranked = perm[np.argsort(degree[covered[perm]], kind="stable")]
    return covered[ranked[:shared]].tolist()


def _plant(
    n: int, edge_sizes: list[int], lam: float, seed_key: tuple[int, ...]
) -> list[tuple[int, ...]] | None:
    """Plant edges sequentially with shared fraction lam; None if stuck on duplicates.

    Each edge draws from its own keyed RNG, so for a fixed seed_key the node
    choices are coupled across different lam values: raising lam mainly raises
    the shared count, which keeps the overlap roughly monotone in lam and
    makes bisection meaningful. The planting state is the degree of every
    node, the edge that owns each degree-1 node, and the count of exclusive
    nodes of every planted edge; planting an edge of size k updates them in
    O(k). The covered and uncovered nodes are read off the degrees, in
    ascending order, and the donor pool is fixed across duplicate retries.
    """
    degree = np.zeros(n, dtype=int)
    owner = np.zeros(n, dtype=int)
    sizes = np.array(edge_sizes)
    exclusive = np.zeros(len(edge_sizes), dtype=int)
    edges: list[tuple[int, ...]] = []
    taken: set[tuple[int, ...]] = set()
    for idx, k in enumerate(edge_sizes):
        rng = np.random.default_rng([*seed_key, idx])
        u = rng.random()
        target_shared = lam * k
        shared = int(np.floor(target_shared))
        if u < target_shared - shared:
            shared += 1
        covered = np.flatnonzero(degree)
        uncovered = np.flatnonzero(degree == 0)
        shared = min(shared, k, len(covered))
        shared = max(shared, k - len(uncovered))
        fresh = uncovered[rng.permutation(len(uncovered))[: k - shared]].tolist()
        donors = _donor_pool(exclusive[:idx], sizes[:idx], shared)
        for _ in range(_DUPLICATE_RETRIES):
            nodes = tuple(sorted(_draw_shared(edges, donors, degree, covered, shared, rng) + fresh))
            if nodes not in taken:
                break
        else:
            return None
        taken.add(nodes)
        edges.append(nodes)
        for v in nodes:
            if degree[v] == 0:
                owner[v] = idx
                exclusive[idx] += 1
            elif degree[v] == 1:
                exclusive[owner[v]] -= 1
            degree[v] += 1
    return edges


def generate_ground_truth(cfg: SynthConfig) -> Hypergraph:
    """Plant a hypergraph with the requested per-size counts and overlap.

    Bisects the shared fraction against the measured overlap rate, restarting
    with fresh randomness when a run cannot land within OVERLAP_TOLERANCE of
    the target. Trial plants are measured as they are, without validation;
    only the plant that is returned goes through build_hypergraph.
    Deterministic for a fixed config.
    """
    edge_sizes = [k for k in sorted(cfg.edge_spec) for _ in range(cfg.edge_spec[k])]
    if max(edge_sizes) > cfg.n:
        raise InfeasibleError(
            f"hyperedge size {max(edge_sizes)} does not fit in {cfg.n} nodes"
        )
    target = cfg.target_overlap
    best_gap = np.inf
    for attempt in range(_ATTEMPTS):
        lo, hi = 0.0, 1.0
        for step in range(_BISECT_STEPS):
            lam = 0.0 if step == 0 else (1.0 if step == 1 else 0.5 * (lo + hi))
            edges = _plant(cfg.n, edge_sizes, lam, (cfg.seed, 1, attempt))
            if edges is None:
                hi = min(hi, lam) if lam > 0.0 else hi
                continue
            _, achieved = overlap_rate(Hypergraph(cfg.n, tuple(edges)))
            gap = abs(achieved - target)
            best_gap = min(best_gap, gap)
            if gap <= OVERLAP_TOLERANCE:
                return build_hypergraph(cfg.n, edges)
            if step == 0 and achieved > target:
                break
            if step == 1 and achieved < target:
                break
            if achieved < target:
                lo = lam
            else:
                hi = lam
    raise InfeasibleError(
        f"could not reach overlap {target} within {OVERLAP_TOLERANCE} for n={cfg.n}, "
        f"edges {dict(cfg.edge_spec)}; closest gap over {_ATTEMPTS} attempts was {best_gap:.3f}"
    )


def make_dataset(cfg: SynthConfig) -> SyntheticDataset:
    """Ground truth plus node and hyperedge features sampled over it."""
    truth = generate_ground_truth(cfg)
    lap = incidence_laplacian(truth)
    x_nodes, x_edges = sample_features(
        lap, GaussianModelConfig(sigma=cfg.sigma, dim=cfg.dim, seed=cfg.seed)
    )
    _, achieved = overlap_rate(truth)
    return SyntheticDataset(
        truth=truth,
        x_nodes=x_nodes,
        x_edges=x_edges,
        config=cfg,
        achieved_overlap=achieved,
    )
