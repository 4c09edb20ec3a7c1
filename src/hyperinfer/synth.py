"""Synthetic benchmarks: overlap-controlled ground truth plus sampled features.

Ground-truth hypergraphs are planted edge by edge. Each new edge takes some of
its nodes from the already-covered pool and the rest from untouched nodes; the
shared fraction is tuned by bisection until the measured overlap rate lands
within tolerance of the target. Feature matrices then come from the Gaussian
model over the planted structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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
        GaussianModelConfig(sigma=self.sigma, dim=self.dim, seed=self.seed)  # checks sigma, dim


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
    sizes = np.array([len(e) for e in h.edges])
    flat = np.fromiter(chain.from_iterable(h.edges), dtype=np.intp, count=sizes.sum())
    return _overlap(np.bincount(flat, minlength=h.n), flat, sizes)


def _overlap(degree: np.ndarray, flat: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, float]:
    """overlap_rate of the edges whose nodes lie back to back in ``flat``.

    ``degree`` counts each node's edges. Per edge, the count of nodes of
    degree >= 2 over the edge size is the same float as the mean of a boolean
    mask over the edge.
    """
    starts = np.cumsum(sizes) - sizes
    per_edge = np.add.reduceat(degree[flat] >= 2, starts, dtype=np.intp) / sizes
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
    edges: list[np.ndarray],
    donors: np.ndarray,
    degree: np.ndarray,
    shared: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the shared nodes for a new edge: from one random donor if there is any.

    Only when no donor exists does the draw fall back to the lowest-degree
    covered nodes, ties broken at random.
    """
    if len(donors):
        donor = edges[donors[rng.integers(len(donors))]]
        exclusive = donor[degree[donor] == 1]
        return exclusive[rng.permutation(len(exclusive))[:shared]]
    covered = np.flatnonzero(degree)
    perm = rng.permutation(len(covered))
    ranked = perm[np.argsort(degree[covered[perm]], kind="stable")]
    return covered[ranked[:shared]]


_EdgeDraws = tuple[float, np.random.Generator, dict]


def _edge_draws(seed_key: tuple[int, ...], count: int) -> list[_EdgeDraws]:
    """Seed the generator of each of ``count`` edges once: u, the generator, its state after u.

    Edge idx draws from ``np.random.default_rng([*seed_key, idx])``. u rounds
    the edge's shared count; every later draw for the edge starts from the
    saved state, in each trial plant.
    """
    draws = []
    for idx in range(count):
        rng = np.random.default_rng([*seed_key, idx])
        draws.append((rng.random(), rng, rng.bit_generator.state))
    return draws


def _plant(
    n: int,
    edge_sizes: list[int],
    lam: float,
    draws: list[_EdgeDraws],
) -> tuple[list[np.ndarray], float] | None:
    """Plant edges sequentially with shared fraction lam; None if stuck on duplicates.

    Returns the edges, as ascending node arrays, and their overlap_rate mean.
    Edge idx rounds lam * k with ``draws[idx]``'s u, then draws its nodes
    from its generator reset to the saved state, so for fixed draws the node
    choices are coupled across different lam values: raising lam mainly
    raises the shared count, which keeps the overlap roughly monotone in lam
    and makes bisection meaningful.

    The planting state is the degree of every node, the edge that owns each
    degree-1 node, the count of exclusive nodes of every planted edge, and
    the uncovered nodes as one ascending array, from which each edge's fresh
    nodes are deleted; the covered count is n minus its length. Planting an
    edge of size k updates the first three in O(k). The donor pool is fixed
    across duplicate retries. An edge that shares no node has no shared draw
    and, with k fresh nodes, cannot repeat an earlier edge.
    """
    degree = np.zeros(n, dtype=np.intp)
    owner = np.zeros(n, dtype=np.intp)
    sizes = np.array(edge_sizes)
    exclusive = np.zeros(len(edge_sizes), dtype=np.intp)
    uncovered = np.arange(n)
    edges: list[np.ndarray] = []
    taken: set[tuple[int, ...]] = set()
    for idx, (k, (u, rng, state)) in enumerate(zip(edge_sizes, draws)):
        rng.bit_generator.state = state
        target_shared = lam * k
        shared = int(np.floor(target_shared))
        if u < target_shared - shared:
            shared += 1
        shared = min(shared, k, n - len(uncovered))
        shared = max(shared, k - len(uncovered))
        pick = rng.permutation(len(uncovered))[: k - shared]
        fresh = uncovered[pick]
        uncovered = np.delete(uncovered, pick)
        if shared == 0:
            nodes = np.sort(fresh)
        else:
            donors = _donor_pool(exclusive[:idx], sizes[:idx], shared)
            for _ in range(_DUPLICATE_RETRIES):
                drawn = _draw_shared(edges, donors, degree, shared, rng)
                nodes = np.sort(np.concatenate((drawn, fresh)))
                if tuple(nodes.tolist()) not in taken:
                    break
            else:
                return None
        taken.add(tuple(nodes.tolist()))
        edges.append(nodes)
        seen = degree[nodes]
        first = nodes[seen == 0]
        owner[first] = idx
        exclusive[idx] = len(first)
        np.subtract.at(exclusive, owner[nodes[seen == 1]], 1)
        degree[nodes] += 1
    return edges, _overlap(degree, np.concatenate(edges), sizes)[1]


def generate_ground_truth(cfg: SynthConfig) -> Hypergraph:
    """Plant a hypergraph with the requested per-size counts and overlap.

    Bisects the shared fraction against the measured overlap rate, restarting
    with fresh randomness when a run cannot land within OVERLAP_TOLERANCE of
    the target. Each attempt seeds every edge's generator once
    (``_edge_draws``, keyed on (seed, 1, attempt, edge index)); its trial
    plants all restart each edge's generator from the state saved then.
    Trial plants are measured as they are, without validation; only the plant
    that is returned goes through build_hypergraph. Deterministic for a fixed
    config.
    """
    edge_sizes = [k for k in sorted(cfg.edge_spec) for _ in range(cfg.edge_spec[k])]
    if max(edge_sizes) > cfg.n:
        raise InfeasibleError(
            f"hyperedge size {max(edge_sizes)} does not fit in {cfg.n} nodes"
        )
    target = cfg.target_overlap
    best_gap = np.inf
    for attempt in range(_ATTEMPTS):
        draws = _edge_draws((cfg.seed, 1, attempt), len(edge_sizes))
        lo, hi = 0.0, 1.0
        for step in range(_BISECT_STEPS):
            lam = 0.0 if step == 0 else (1.0 if step == 1 else 0.5 * (lo + hi))
            plant = _plant(cfg.n, edge_sizes, lam, draws)
            if plant is None:
                hi = min(hi, lam) if lam > 0.0 else hi
                continue
            edges, achieved = plant
            gap = abs(achieved - target)
            best_gap = min(best_gap, gap)
            if gap <= OVERLAP_TOLERANCE:
                return build_hypergraph(cfg.n, [e.tolist() for e in edges])
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
