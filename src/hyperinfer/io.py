"""On-disk formats: features CSV, hypergraph JSON, candidates CSV, report JSON.

Everything here is plain text so outputs diff cleanly and round-trip exactly:
feature floats are written with 17 significant digits, JSON keys are sorted,
and candidate rows are emitted in a deterministic order.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .core import DomainError, Hypergraph, as_features, build_hypergraph
from .inference import CandidateSet, _selection_order
from .metrics import MatchReport, SeparationReport
from .synth import SynthConfig

CANDIDATE_FIELDS = ("nodes", "size", "anchor", "s_prime", "prob")


def write_features(path, x) -> None:
    """One row per entity, comma-separated floats, no header."""
    np.savetxt(path, as_features(x), delimiter=",", fmt="%.17g")


def read_features(path) -> np.ndarray:
    # An empty file is reported by as_features; numpy's own warning would
    # only repeat it on stderr.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_features(rows, name=str(path))


def write_hypergraph(path, h: Hypergraph) -> None:
    payload: dict = {"n": h.n, "edges": [list(e) for e in h.edges]}
    if h.weights is not None:
        payload["weights"] = list(h.weights)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _is_int(value) -> bool:
    # JSON booleans arrive as bool, a subclass of int; they are not node ids.
    return type(value) is int


def read_hypergraph(path) -> Hypergraph:
    """Read a hypergraph JSON, rejecting values JSON types would let through.

    ``n`` and every node id must be JSON integers and every weight a number;
    strings, floats and booleans in their place are errors, not coerced. ``n``
    must also fit ``np.intp``, the index type every array over the nodes uses.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise DomainError(f"{path}: JSON is nested too deeply to read") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise DomainError(f"{path} is not a hypergraph file; keys 'n' and 'edges' required")
    n, edges, weights = payload["n"], payload["edges"], payload.get("weights")
    if not _is_int(n):
        raise DomainError(f"{path}: 'n' must be an integer, got {n!r}")
    if n > np.iinfo(np.intp).max:
        raise DomainError(f"{path}: 'n' is {n}, more nodes than an index array can address")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and all(_is_int(v) for v in e) for e in edges
    ):
        raise DomainError(f"{path}: 'edges' must be a list of lists of integer node ids")
    if weights is not None and not (
        isinstance(weights, list) and all(type(w) in (int, float) for w in weights)
    ):
        raise DomainError(f"{path}: 'weights' must be a list of numbers")
    return build_hypergraph(n, edges, weights=weights)


def write_candidates(path, cs: CandidateSet) -> None:
    """CSV of the scored pool, one row per candidate, in ``_selection_order``.

    Node indices are ';'-joined in ascending order, so rewriting the same pool
    reproduces the file byte for byte.
    """
    if cs.scores is None or cs.probs is None:
        raise DomainError("candidate scores and probabilities must be attached first")
    order = _selection_order(cs)
    columns = (cs.anchors[order].tolist(), cs.scores[order].tolist(), cs.probs[order].tolist())
    # The rows csv.writer would write: no field needs quoting, floats are repr'd.
    rows = [",".join(CANDIDATE_FIELDS)]
    rows.extend(
        f"{';'.join(map(str, nodes))},{len(nodes)},{anchor},{s!r},{p!r}"
        for nodes, anchor, s, p in zip(cs.edges(order), *columns)
    )
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")


def load_candidates(path, n: int) -> CandidateSet:
    """Read a candidates CSV back into a fully scored pool over n nodes.

    Every row must have exactly one field per header column and distinct node
    ids in any order; its ids and anchor lie in 0..n-1. Blank lines are skipped.
    """
    node_lists, anchors, scores, probs = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != list(CANDIDATE_FIELDS):
                raise DomainError(f"{path} has header {header}, expected {list(CANDIDATE_FIELDS)}")
            for row in reader:
                if not row:
                    continue
                where = f"{path}, line {reader.line_num}"
                if len(row) != len(header):
                    raise DomainError(f"{where}: {len(row)} fields, expected {len(header)}")
                node_list, size, anchor, s_prime, prob = row
                try:
                    nodes = sorted(int(tok) for tok in node_list.split(";"))
                    size, anchor = int(size), int(anchor)
                    s_prime, prob = float(s_prime), float(prob)
                except ValueError as exc:
                    raise DomainError(f"{where}: {exc}") from exc
                if size != len(nodes):
                    raise DomainError(f"{where}: row for {node_list} declares size {size}")
                if len(set(nodes)) != len(nodes):
                    raise DomainError(f"{where}: node ids repeat in {node_list}")
                if nodes[0] < 0:
                    raise DomainError(f"{where}: node id {nodes[0]} is negative")
                for what, value in (("node id", nodes[-1]), ("anchor", anchor)):
                    if not 0 <= value < n:
                        raise DomainError(f"{where}: {what} {value} is out of range for n={n}")
                node_lists.append(nodes)
                anchors.append(anchor)
                scores.append(s_prime)
                probs.append(prob)
        except csv.Error as exc:
            raise DomainError(f"{path}, line {reader.line_num}: {exc}") from exc
    width = max(map(len, node_lists), default=0)
    padded = [row + [-1] * (width - len(row)) for row in node_lists]
    nodes = np.array(padded, dtype=np.intp).reshape(len(padded), width)
    return CandidateSet(n=n, nodes=nodes, anchors=anchors, scores=scores, probs=probs)


def write_metrics(
    path,
    match: MatchReport,
    hgmse_value: float,
    separation: SeparationReport | None = None,
) -> None:
    payload: dict = {
        "precision": match.precision,
        "recall": match.recall,
        "f1": match.f1,
        "hgmse": hgmse_value,
    }
    if separation is not None:
        block: dict = {}
        if separation.mean_truth_prob is not None:
            block["truth_mean"] = separation.mean_truth_prob
        if separation.mean_other_prob is not None:
            block["other_mean"] = separation.mean_other_prob
        if separation.gap is not None:
            block["gap"] = separation.gap
        payload["separation"] = block
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(path, cfg: SynthConfig, achieved_overlap: float, version: str) -> None:
    """Record every parameter needed to regenerate a dataset, plus the outcome."""
    payload = {
        "n": cfg.n,
        "edge_spec": {str(k): int(c) for k, c in sorted(cfg.edge_spec.items())},
        "target_overlap": cfg.target_overlap,
        "achieved_overlap": achieved_overlap,
        "sigma": cfg.sigma,
        "dim": cfg.dim,
        "seed": cfg.seed,
        "version": version,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
