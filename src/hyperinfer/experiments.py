"""End-to-end experiment protocol: synthesize, infer, evaluate, sweep.

run_protocol performs one generate-infer-evaluate cycle with per-size
selection set to the true edge counts, which is how every benchmark number in
this package is produced. run_sweep repeats that over a one-dimensional grid
with paired seeds, so differences along the axis are not seed noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .core import DomainError, Hypergraph, PerSize, normalize_features, whole
from .inference import CandidateSet, infer_hypergraph
from .metrics import MatchReport, SeparationReport, f1_exact, hgmse, probability_separation
from .smoothness import SmoothnessVariant
from .synth import SynthConfig, make_dataset

# The sweep's row schema, in the order of its CSV header.
SWEEP_COLUMNS = ("axis", "value", "seed", "status", "f1", "hgmse", "f1_std", "hgmse_std", "gap")


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Everything one benchmark run produces, ground truth included."""

    config: SynthConfig
    achieved_overlap: float
    truth: Hypergraph
    selected: Hypergraph
    candidates: CandidateSet
    match: MatchReport
    hgmse: float
    separation: SeparationReport


# The last dataset run_protocol made, or None: ((config, normalize), (truth,
# achieved overlap, inference features)).
_dataset: tuple | None = None


def run_protocol(
    n: int,
    edge_spec: Mapping[int, int],
    overlap: float,
    *,
    sigma: float = 1e-3,
    dim: int = 64,
    seed: int = 0,
    variant: SmoothnessVariant | None = None,
    normalize: bool = False,
) -> ProtocolResult:
    """One full cycle: sample a dataset, infer with true per-size counts, score it.

    normalize rescales the node features by a single global factor before
    inference, which leaves the selection unchanged but makes candidate
    probabilities comparable across datasets of different dimension.

    The dataset depends on the config and normalize only, so the last one is
    kept: a call that repeats them, as an ablation over variants at one seed
    does, skips synthesis and infers from the same features. Those features
    (n x dim floats, made read-only) stay referenced until a call with another
    config, which drops them before it synthesizes, so at most one dataset is
    held. Inference and scoring run on every call.
    """
    global _dataset
    cfg = SynthConfig(
        n=n,
        edge_spec=edge_spec,
        target_overlap=overlap,
        sigma=sigma,
        dim=dim,
        seed=seed,
    )
    key = (cfg, normalize)
    kept, _dataset = _dataset, None
    if kept is None or kept[0] != key:
        kept = None  # the old features are freed before the new ones are made
        ds = make_dataset(cfg)
        x = normalize_features(ds.x_nodes) if normalize else ds.x_nodes
        x.flags.writeable = False
        kept = key, (ds.truth, ds.achieved_overlap, x)
        del ds, x  # the raw node and hyperedge features are freed before the search
    _dataset = kept
    truth, achieved_overlap, x = kept[1]
    cs, pred = infer_hypergraph(
        x, list(cfg.edge_spec), PerSize(cfg.edge_spec), variant=variant
    )
    return ProtocolResult(
        config=cfg,
        achieved_overlap=achieved_overlap,
        truth=truth,
        selected=pred,
        candidates=cs,
        match=f1_exact(pred, truth),
        hgmse=hgmse(pred, truth),
        separation=probability_separation(cs, truth),
    )


# Each sweep axis: the type its grid values parse to, and the run_protocol
# keywords a value sets, given the sweep's base keywords and the run's seed.
# The random variant alone takes the run's seed.
SWEEP_AXES = {
    "nodes": (int, lambda value, base, seed: {"n": value}),
    "edge-size": (
        int, lambda value, base, seed: {"edge_spec": {value: sum(base["edge_spec"].values())}}
    ),
    "overlap": (float, lambda value, base, seed: {"overlap": float(value)}),
    "variant": (str, lambda value, base, seed: {"variant": SmoothnessVariant(
        kind=str(value), seed=seed if str(value) == "random" else None
    )}),
}

# Each metric column of a run row and how it reads the run's result. A summary
# row holds the mean and std of f1 and hgmse over its runs and their smallest gap.
_READERS = {
    "f1": lambda result: result.match.f1,
    "hgmse": lambda result: result.hgmse,
    "gap": lambda result: result.separation.gap,
}


def run_sweep(
    axis: str,
    values: Iterable,
    reps: int,
    *,
    n: int = 100,
    edge_spec: Mapping[int, int] | None = None,
    overlap: float = 0.3,
    sigma: float = 1e-3,
    dim: int = 64,
    seed: int = 0,
    normalize: bool = False,
) -> list[dict]:
    """Grid of runs along one axis, reps per point, plus one summary row per point.

    Row schema follows SWEEP_COLUMNS; per-run rows leave the std columns None
    and summary rows carry seed="summary". A run row's gap is that run's
    probability-separation gap; a summary row's gap is the smallest among its
    runs, the worst case. gap is None where no gap is defined. A point that
    fails on its domain or runs out of memory becomes a row with status
    "error:<kind>" and the sweep moves on. Seeds are paired: rep r uses
    seed + r at every grid value.

    Runs go rep by rep, each over the whole grid, while rows come value by
    value. On the variant axis every run of a seed then scores one dataset
    (see run_protocol), which is synthesized once per seed, not once per run.
    """
    if axis not in SWEEP_AXES:
        raise DomainError(
            f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}"
        )
    reps = whole(reps, "reps", 1)
    values = list(values)
    if not values:
        raise DomainError("sweep needs at least one grid value")
    keywords = SWEEP_AXES[axis][1]
    spec = dict(edge_spec) if edge_spec is not None else {8: 12}
    base = dict(n=n, edge_spec=spec, overlap=overlap, sigma=sigma, dim=dim, normalize=normalize)
    grid: list[list[dict]] = [[] for _ in values]
    for rep in range(reps):
        run_seed = seed + rep
        for value, runs in zip(values, grid):
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update(axis=axis, value=value, seed=run_seed, status="ok")
            try:
                result = run_protocol(
                    **{**base, **keywords(value, base, run_seed), "seed": run_seed}
                )
            except (DomainError, MemoryError) as exc:
                row["status"] = f"error:{type(exc).__name__}"
            else:
                row.update((col, read(result)) for col, read in _READERS.items())
            runs.append(row)
    rows: list[dict] = []
    for runs in grid:
        rows.extend(runs)
        ok = [row for row in runs if row["status"] == "ok"]
        if ok:
            summary = dict(ok[0], seed="summary")
            for col in ("f1", "hgmse"):
                summary[col] = float(np.mean([row[col] for row in ok]))
                summary[f"{col}_std"] = float(np.std([row[col] for row in ok]))
            summary["gap"] = min((r["gap"] for r in ok if r["gap"] is not None), default=None)
            rows.append(summary)
    return rows
