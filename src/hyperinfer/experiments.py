"""End-to-end experiment protocol: synthesize, infer, evaluate, sweep.

run_protocol performs one generate-infer-evaluate cycle with per-size
selection set to the true edge counts, which is how every benchmark number in
this package is produced. run_sweep repeats that over a one-dimensional grid
with paired seeds, so differences along the axis are not seed noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DomainError, Hypergraph, PerSize, normalize_features, whole
from .inference import CandidateSet, infer_hypergraph
from .metrics import MatchReport, SeparationReport, f1_exact, hgmse, probability_separation
from .smoothness import SmoothnessVariant
from .synth import SynthConfig, make_dataset

# Each sweep axis and the type its grid values are parsed to.
SWEEP_AXES = {"nodes": int, "edge-size": int, "overlap": float, "variant": str}

SWEEP_COLUMNS = (
    "axis", "value", "seed", "status", "f1", "hgmse", "f1_std", "hgmse_std", "gap"
)


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
    """
    cfg = SynthConfig(
        n=n,
        edge_spec=edge_spec,
        target_overlap=overlap,
        sigma=sigma,
        dim=dim,
        seed=seed,
    )
    ds = make_dataset(cfg)
    truth, achieved_overlap = ds.truth, ds.achieved_overlap
    x = normalize_features(ds.x_nodes) if normalize else ds.x_nodes
    del ds  # the raw node and hyperedge features are freed before the search
    cs, pred = infer_hypergraph(
        x, sorted(cfg.edge_spec), PerSize(cfg.edge_spec), variant=variant
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


def run_sweep(
    axis: str,
    values: Sequence,
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
    """
    if axis not in SWEEP_AXES:
        raise DomainError(
            f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}"
        )
    reps = whole(reps, "reps", 1)
    if not values:
        raise DomainError("sweep needs at least one grid value")
    edge_spec = dict(edge_spec) if edge_spec is not None else {8: 12}
    rows: list[dict] = []
    for value in values:
        point_n = value if axis == "nodes" else n
        point_spec = {value: sum(edge_spec.values())} if axis == "edge-size" else edge_spec
        point_overlap = float(value) if axis == "overlap" else overlap
        runs: list[dict] = []
        for rep in range(reps):
            run_seed = seed + rep
            row = dict.fromkeys(SWEEP_COLUMNS)
            row.update(axis=axis, value=value, seed=run_seed, status="ok")
            try:
                variant = None
                if axis == "variant":
                    kind = str(value)
                    variant = SmoothnessVariant(
                        kind=kind, seed=run_seed if kind == "random" else None
                    )
                result = run_protocol(
                    point_n,
                    point_spec,
                    point_overlap,
                    sigma=sigma,
                    dim=dim,
                    seed=run_seed,
                    variant=variant,
                    normalize=normalize,
                )
            except (DomainError, MemoryError) as exc:
                row["status"] = f"error:{type(exc).__name__}"
            else:
                row["f1"] = result.match.f1
                row["hgmse"] = result.hgmse
                row["gap"] = result.separation.gap
            runs.append(row)
        rows.extend(runs)
        ok = [row for row in runs if row["status"] == "ok"]
        if ok:
            f1s = [row["f1"] for row in ok]
            errs = [row["hgmse"] for row in ok]
            gaps = [row["gap"] for row in ok if row["gap"] is not None]
            rows.append(
                {
                    "axis": axis,
                    "value": value,
                    "seed": "summary",
                    "status": "ok",
                    "f1": float(np.mean(f1s)),
                    "hgmse": float(np.mean(errs)),
                    "f1_std": float(np.std(f1s)),
                    "hgmse_std": float(np.std(errs)),
                    "gap": min(gaps, default=None),
                }
            )
    return rows
