"""Synthetic benchmarks: overlap-controlled ground truth plus sampled features.

Ground-truth hypergraphs are planted edge by edge. Each new edge takes some of
its nodes from the already-covered pool and the rest from untouched nodes; the
shared fraction is tuned by bisection until the measured overlap rate lands
within tolerance of the target. Feature matrices then come from the Gaussian
model over the planted structure.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (
    DomainError, Hypergraph, InfeasibleError, build_hypergraph, edge_arrays, keyed_rng, real, whole,
)
from .probmodel import GaussianModelConfig, incidence_laplacian, sample_features

OVERLAP_TOLERANCE = 0.05

# Far above the rounding of a running sum of m shares or of a plant's mean
# rate (about m ulps), far below any overlap rate that matters. It pads the
# bounds on a rate, _trial_counts' low and high, wherever they are compared.
_RATE_MARGIN = 1e-9
_ATTEMPTS = 50
_BISECT_STEPS = 25
_DUPLICATE_RETRIES = 20


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for one synthetic dataset.

    edge_spec maps hyperedge size to how many edges of that size to plant,
    e.g. {8: 12} for a uniform hypergraph. It is held as a read-only mapping
    ordered by size, so a config is hashable and equal specs hash alike
    whatever order they were given in. dim defaults to a desk-scale value;
    benchmark runs pass the full fidelity dimension explicitly.
    """

    n: int
    edge_spec: Mapping[int, int]
    target_overlap: float
    sigma: float = 1e-3
    dim: int = 64
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "node count n", 1))
        spec = {}
        for k, c in dict(self.edge_spec).items():
            k = whole(k, "hyperedge size", 2)
            spec[k] = whole(c, f"edge count for size {k}", 1)
        if not spec:
            raise DomainError("edge_spec must request at least one hyperedge")
        object.__setattr__(self, "edge_spec", MappingProxyType(dict(sorted(spec.items()))))
        overlap = real(self.target_overlap, "target overlap")
        if not 0.0 <= overlap < 1.0:
            raise DomainError(f"target overlap must lie in [0, 1), got {self.target_overlap}")
        object.__setattr__(self, "target_overlap", overlap)
        # The model config checks sigma, dim and seed, and holds them as a Python float and ints.
        model = GaussianModelConfig(sigma=self.sigma, dim=self.dim, seed=self.seed)
        for name in ("sigma", "dim", "seed"):
            object.__setattr__(self, name, getattr(model, name))

    def __hash__(self):
        spec = tuple(self.edge_spec.items())
        return hash((self.n, spec, self.target_overlap, self.sigma, self.dim, self.seed))

    def __reduce__(self):  # a mappingproxy cannot be pickled or deep-copied; its dict can
        spec = dict(self.edge_spec)
        return SynthConfig, (self.n, spec, self.target_overlap, self.sigma, self.dim, self.seed)


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
    nodes, sizes = edge_arrays(h.edges)
    # Degrees over the nodes the edges hold, not the declared n. Per edge, the
    # count of degree >= 2 over k is the float a boolean mask's mean gives.
    _, where, degree = np.unique(nodes, return_inverse=True, return_counts=True)
    shared = np.add.reduceat(degree[where] >= 2, np.cumsum(sizes) - sizes, dtype=np.intp)
    per_edge = shared / sizes
    return per_edge, float(per_edge.mean())


def _donor_pool(exclusive: np.ndarray, sizes: np.ndarray, shared: int) -> np.ndarray:
    """Indices of the planted edges a new edge may borrow its whole shared block from.

    A donor must still hold at least ``shared`` exclusive nodes (nodes in no
    other edge); among those, only the least-entangled ones, with the fewest
    nodes shared elsewhere, qualify. Borrowing from a single donor grows pair
    and chain patterns, where every node sits in at most two edges, which
    keeps any overlap level structurally recoverable.
    """
    able = (exclusive >= shared).nonzero()[0]
    if len(able) == 0:
        return able
    burden = sizes[able] - exclusive[able]
    return able[burden == burden.min()]


def _draw_shared(
    edges: list[tuple[int, ...]],
    donors: np.ndarray,
    degree: array,
    shared: int,
    rng: np.random.Generator,
) -> list[int]:
    """Pick the shared nodes for a new edge: from one random donor if there is any.

    Only when no donor exists does the draw fall back to the lowest-degree
    covered nodes, ties broken at random.
    """
    if len(donors):
        donor = edges[donors[rng.integers(len(donors))]]
        exclusive = [v for v in donor if degree[v] == 1]
        return [exclusive[i] for i in rng.permutation(len(exclusive))[:shared].tolist()]
    degrees = np.frombuffer(degree, dtype=np.int64)
    covered = np.flatnonzero(degrees)
    perm = rng.permutation(len(covered))
    ranked = perm[np.argsort(degrees[covered[perm]], kind="stable")]
    return covered[ranked[:shared]].tolist()


def _draw_fresh(pool: list[int], live: int, count: int, rng: np.random.Generator) -> list[int]:
    """Take ``count`` nodes uniformly without replacement from ``pool[:live]``.

    Draw j is ``rng.integers(live - j)``, an integer uniform on [0, live - j)
    with an integer bound: a scaled float such as int(u * live) can round up
    to live. One scalar call per pick leaves the picks and the generator's
    state as one call with the array of bounds did, at a fraction of its
    fixed cost. Each pick swaps with the last live entry, so afterwards
    ``pool[:live - count]`` holds the nodes not taken and the cost is
    O(count), whatever the pool's length.
    """
    fresh = []
    for last in range(live - 1, live - 1 - count, -1):
        pick = rng.integers(last + 1)
        node = pool[pick]
        pool[pick] = pool[last]
        pool[last] = node
        fresh.append(node)
    return fresh


_EdgeDraws = tuple[float, np.random.Generator, dict]


def _edge_draws(seed_key: tuple[int, ...], count: int) -> list[_EdgeDraws]:
    """Seed the generator of each of ``count`` edges once: u, the generator, its state after u.

    Edge idx draws from ``np.random.default_rng([*seed_key, idx])``, seeded
    through ``keyed_rng``. u rounds the edge's shared count; every later draw
    for the edge starts from the saved state, in each trial plant.
    """
    draws = []
    for idx in range(count):
        rng = keyed_rng((*seed_key, idx))
        draws.append((rng.random(), rng, rng.bit_generator.state))
    return draws


def _shares(n: int, edge_sizes: list[int], lam: float, draws: list[_EdgeDraws]):
    """Yield (k, shared, live) per edge: its size, its shared count, the uncovered count before it.

    An edge of size k asks for lam * k covered nodes, rounded up when its u
    falls below the fraction. It takes as many as the n - live covered nodes
    allow, and at least the k - live that the uncovered ones cannot fill. No
    node draw enters, so ``_trial_counts`` and ``_plant`` read the same counts.
    """
    live = n
    for k, (u, _, _) in zip(edge_sizes, draws):
        wanted = math.floor(lam * k)
        wanted += u < lam * k - wanted
        shared = max(min(wanted, k, n - live), k - live)
        yield k, shared, live
        live -= k - shared


def _trial_counts(
    n: int, edge_sizes: list[int], lam: float, draws: list[_EdgeDraws]
) -> tuple[float, float, bool]:
    """Bounds low <= high on the rate of the full plant at lam, and whether it can get stuck.

    ``_shares`` gives the shared counts without a node draw. A shared node is
    of degree 1 whenever one is left: a donor gives its exclusive nodes, and
    the fallback takes the lowest degrees first. So edge j turns hits_j =
    min(shared_j, single_j) nodes from degree 1 to 2, where single counts the
    degree-1 nodes. Over the edges, m * rate is the sum of shared_j / k_j
    plus 1 / k_owner per hit, and k_owner lies between the smallest and the
    largest size; with one size, low == high. An edge with a fresh node cannot
    repeat an earlier edge, so only an edge that shares all its k nodes can
    get stuck. The bounds are the exact sums, not padded by ``_RATE_MARGIN``.
    """
    single, hits, own, stick = 0, 0, 0.0, False
    for k, shared, _ in _shares(n, edge_sizes, lam, draws):
        hit = min(shared, single)
        hits += hit
        single += k - shared - hit
        own += shared / k
        stick = stick or shared == k
    m = len(edge_sizes)
    return (own + hits / max(edge_sizes)) / m, (own + hits / min(edge_sizes)) / m, stick


def _plant(
    n: int,
    edge_sizes: list[int],
    lam: float,
    draws: list[_EdgeDraws],
) -> tuple[list[tuple[int, ...]], float] | None:
    """Plant edges sequentially with shared fraction lam; None if stuck on duplicates.

    Returns the edges, as ascending node tuples, and their overlap_rate mean.
    Edge idx takes its counts from ``_shares``, then draws its nodes from
    its generator reset to the saved state, so for fixed draws the node
    choices are coupled across different lam values: raising lam mainly
    raises the shared count, which keeps the overlap roughly monotone in lam
    and makes bisection meaningful.

    The planting state is the degree of every node, the edge that owns each
    degree-1 node, the count of exclusive nodes of every planted edge, and a
    swap-remove pool whose first ``live`` entries are the uncovered nodes
    (``_draw_fresh``). Planting an edge of size k costs O(k) outside the
    donor pool, which is O(edges planted). The donor pool is fixed across
    duplicate retries. An edge that shares no node has no shared draw and,
    with k fresh nodes, cannot repeat an earlier edge. The nodes an edge does
    not hold alone are those in two or more edges, so the plant's rate is the
    mean of (k - exclusive) / k, the same float as overlap_rate's.
    """
    m = len(edge_sizes)
    degree = array("q", [0]) * n
    owner = [0] * n
    sizes = np.array(edge_sizes)
    exclusive = np.zeros(m, dtype=np.intp)
    pool = list(range(n))
    edges: list[tuple[int, ...]] = []
    taken: set[tuple[int, ...]] = set()
    shares = _shares(n, edge_sizes, lam, draws)
    for idx, ((k, shared, live), (_, rng, state)) in enumerate(zip(shares, draws)):
        rng.bit_generator.state = state
        fresh = _draw_fresh(pool, live, k - shared, rng)
        if shared == 0:
            nodes = tuple(sorted(fresh))
        else:
            donors = _donor_pool(exclusive[:idx], sizes[:idx], shared)
            for _ in range(_DUPLICATE_RETRIES):
                nodes = tuple(sorted(_draw_shared(edges, donors, degree, shared, rng) + fresh))
                if nodes not in taken:
                    break
            else:
                return None
        taken.add(nodes)
        edges.append(nodes)
        first = 0
        for v in nodes:
            seen = degree[v]
            if seen == 0:
                owner[v] = idx
                first += 1
            elif seen == 1:
                exclusive[owner[v]] -= 1
            degree[v] = seen + 1
        exclusive[idx] = first
    return edges, float(((sizes - exclusive) / sizes).mean())


def _distinct_edges(n: int, k: int, count: int) -> int:
    """C(n, k) for n >= k, or a number >= count once the running product passes it.

    The product C(n, i), i <= min(k, n - k), never falls and is at least 2**i,
    so it stops within count.bit_length() steps.
    """
    c = 1
    for i in range(min(k, n - k)):
        c = c * (n - i) // (i + 1)
        if c >= count:
            break
    return c


def generate_ground_truth(cfg: SynthConfig) -> Hypergraph:
    """Plant a hypergraph with the requested per-size counts and overlap.

    Bisects the shared fraction against the measured overlap rate, restarting
    with fresh randomness when a run cannot land within OVERLAP_TOLERANCE of
    the target. Each attempt seeds every edge's generator once
    (``_edge_draws``, keyed on (seed, 1, attempt, edge index)); its trial
    plants all restart each edge's generator from the state saved then.
    A trial plant measures its rate from its own counts, without validation;
    only the plant that is returned goes through build_hypergraph.

    A trial is planted only when its counts (``_trial_counts``) leave its
    verdict open. When they place the rate beyond the tolerance on one side,
    and a plant that got stuck on duplicates would move the bracket the same
    way (a stuck plant lowers it after the first trial and leaves it at the
    first), the trial moves the bracket without a plant. A skipped trial's
    gap is exact only when the counts give one rate and no edge can stick;
    otherwise only a search that fails replants it, for the exact closest
    gap. Deterministic for a fixed config. A size that does not fit in n
    nodes, or a count above the number of distinct edges of its size, fails
    before any per-edge state is built.
    """
    if max(cfg.edge_spec) > cfg.n:
        raise InfeasibleError(f"hyperedge size {max(cfg.edge_spec)} does not fit in {cfg.n} nodes")
    for k, count in cfg.edge_spec.items():
        distinct = _distinct_edges(cfg.n, k, count)
        if distinct < count:
            raise InfeasibleError(
                f"cannot plant {count} distinct hyperedges of size {k}: "
                f"{cfg.n} nodes hold only {distinct}"
            )
    edge_sizes = [k for k, count in cfg.edge_spec.items() for _ in range(count)]
    target = cfg.target_overlap
    best_gap = np.inf
    skipped = []
    for attempt in range(_ATTEMPTS):
        draws = _edge_draws((cfg.seed, 1, attempt), len(edge_sizes))
        lo, hi = 0.0, 1.0
        for step in range(_BISECT_STEPS):
            lam = 0.0 if step == 0 else (1.0 if step == 1 else 0.5 * (lo + hi))
            low, high, stick = _trial_counts(cfg.n, edge_sizes, lam, draws)
            over = low > target
            gap_floor = max(low - target, target - high) - _RATE_MARGIN
            # A stuck plant moves the bracket as an undershoot does at step 0
            # and as an overshoot does after it.
            if gap_floor > OVERLAP_TOLERANCE and (not stick or over == (step > 0)):
                if low == high and not stick:
                    best_gap = min(best_gap, abs(low - target))
                else:
                    skipped.append((gap_floor, attempt, lam))
            else:
                plant = _plant(cfg.n, edge_sizes, lam, draws)
                if plant is None:
                    over = step > 0
                else:
                    edges, achieved = plant
                    gap = abs(achieved - target)
                    best_gap = min(best_gap, gap)
                    if gap <= OVERLAP_TOLERANCE:
                        return build_hypergraph(cfg.n, edges)
                    over = achieved > target
            if (over and step == 0) or (not over and step == 1):
                break
            if over:
                hi = lam
            else:
                lo = lam
    # A skipped trial's gap is only bounded below: replant each one that could
    # still be the closest, so the message names the exact gap. ``skipped`` is
    # in attempt order, so each attempt is reseeded once.
    redrawn = None
    for gap_floor, attempt, lam in skipped:
        if gap_floor >= best_gap:
            continue
        if redrawn is None or redrawn[0] != attempt:
            redrawn = attempt, _edge_draws((cfg.seed, 1, attempt), len(edge_sizes))
        plant = _plant(cfg.n, edge_sizes, lam, redrawn[1])
        if plant is not None:
            best_gap = min(best_gap, abs(plant[1] - target))
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
