"""Shared generators for the test suite.

Hypothesis strategies cover the small randomised property tests; the plain
``random_*`` helpers drive the larger seeded loops where we want numpy-speed
generation and exact reproducibility from a single integer seed.

``run_protocol`` keeps its last dataset; every test starts without it, and
``forget_synthesis`` drops it mid-test.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from hyperinfer import Hypergraph, build_hypergraph, experiments

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def forget_synthesis():
    """Drop the kept protocol dataset, so the next call synthesizes it again."""
    experiments._dataset = None


@pytest.fixture(autouse=True)
def _fresh_synthesis():
    # A test that counts synthesis work, or checks that a rerun repeats its
    # output, must not get a dataset kept from an earlier test.
    forget_synthesis()


@st.composite
def hypergraphs(draw, max_n: int = 10, max_edges: int = 5, weighted: bool = False):
    """A valid hypergraph with 2..max_n nodes and 1..max_edges distinct edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    target_m = draw(st.integers(min_value=1, max_value=max_edges))
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(target_m):
        k = draw(st.integers(min_value=2, max_value=n))
        members = draw(
            st.frozensets(st.integers(0, n - 1), min_size=k, max_size=k)
        )
        edge = tuple(sorted(members))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    weights = None
    if weighted:
        weights = [
            draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
            for _ in edges
        ]
    return build_hypergraph(n, edges, weights=weights)


@st.composite
def feature_matrices(draw, rows: int | None = None, max_rows: int = 8, max_dim: int = 4):
    """A finite float matrix, optionally with a fixed row count."""
    r = rows if rows is not None else draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    flat = draw(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32),
            min_size=r * d,
            max_size=r * d,
        )
    )
    return np.array(flat, dtype=float).reshape(r, d)


def random_hypergraph(
    rng: np.random.Generator,
    max_n: int = 12,
    max_edges: int = 6,
    weighted: bool = False,
) -> Hypergraph:
    """Seeded-loop counterpart of the hypergraphs() strategy."""
    n = int(rng.integers(2, max_n + 1))
    target_m = int(rng.integers(1, max_edges + 1))
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(target_m):
        k = int(rng.integers(2, n + 1))
        edge = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if edge in seen:
            continue
        seen.add(edge)
        edges.append(edge)
    weights = None
    if weighted:
        weights = rng.uniform(0.05, 1.0, size=len(edges)).tolist()
    return build_hypergraph(n, edges, weights=weights)
