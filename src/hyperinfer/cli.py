"""Command line front end: infer, synth, eval, sweep.

Exit codes are a stable contract for scripting: 0 on success, 2 for unreadable,
unwritable or malformed files, 3 for domain and feasibility failures and for
inputs too large for the memory available. Error messages go to standard error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import __version__
from .core import DomainError, PerSize, TopM, normalize_features
from .experiments import SWEEP_AXES, SWEEP_COLUMNS, run_sweep
from .inference import infer_hypergraph
from .io import (
    load_candidates,
    read_features,
    read_hypergraph,
    write_candidates,
    write_features,
    write_hypergraph,
    write_manifest,
    write_metrics,
)
from .metrics import f1_exact, hgmse, probability_separation
from .smoothness import VARIANT_KINDS, SmoothnessVariant
from .synth import SynthConfig, make_dataset


class _InputError(Exception):
    """Malformed input file or mismatched inputs; maps to exit code 2."""


def _read(fn, path, *args):
    # A DomainError is a ValueError, so a file that breaks a domain rule exits 2, not 3.
    try:
        return fn(path, *args)
    except (OSError, ValueError, TypeError) as exc:
        detail = str(exc)
        raise _InputError(detail if str(path) in detail else f"{path}: {detail}") from exc


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {tok!r}") from None


def _int_list(text: str) -> list[int]:
    items = [_int(tok, "size") for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty size list")
    return items


def _count_map(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        size, _, count = tok.partition("=")
        if not count:
            raise argparse.ArgumentTypeError(f"expected size=count, got {tok!r}")
        size = _int(size, "size")
        if size in out:
            raise argparse.ArgumentTypeError(f"size {size} given more than once in {text!r}")
        out[size] = _int(count, "count")
    if not out:
        raise argparse.ArgumentTypeError("empty size=count list")
    return out


def _comma_list(text: str) -> list[str]:
    items = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty value list")
    return items


def cmd_infer(args) -> int:
    x = _read(read_features, args.features)
    if args.normalize:
        x = normalize_features(x)
    variant = SmoothnessVariant(
        kind=args.variant, seed=args.seed if args.variant == "random" else None
    )
    spec = TopM(args.top_m) if args.top_m is not None else PerSize(args.per_size)
    cs, pred = infer_hypergraph(x, args.sizes, spec, variant=variant)
    write_hypergraph(args.out, pred)
    if args.candidates:
        write_candidates(args.candidates, cs)
    print(f"selected {pred.m} of ≤{len(cs.sizes) * cs.n} candidates")
    return 0


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        n=args.nodes,
        edge_spec=args.edges,
        target_overlap=args.overlap,
        sigma=args.sigma,
        dim=args.dim,
        seed=args.seed,
    )
    ds = make_dataset(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_features(out / "node_features.csv", ds.x_nodes)
    write_features(out / "edge_features.csv", ds.x_edges)
    write_hypergraph(out / "truth.json", ds.truth)
    write_manifest(out / "manifest.json", ds.config, ds.achieved_overlap, __version__)
    print(f"wrote dataset to {out} (achieved overlap {ds.achieved_overlap:.4f})")
    return 0


def cmd_eval(args) -> int:
    pred = _read(read_hypergraph, args.pred)
    truth = _read(read_hypergraph, args.truth)
    if pred.n != truth.n:
        raise _InputError(
            f"node counts differ: prediction has {pred.n}, truth has {truth.n}"
        )
    match = f1_exact(pred, truth)
    err = hgmse(pred, truth)
    separation = None
    if args.candidates:
        cs = _read(load_candidates, args.candidates, truth.n)
        separation = probability_separation(cs, truth)
    if args.out:
        write_metrics(args.out, match, err, separation)
    line = (
        f"precision {match.precision:.4f}  recall {match.recall:.4f}  "
        f"f1 {match.f1:.4f}  hgmse {err:.4f}"
    )
    if separation is not None and separation.gap is not None:
        line += f"  separation-gap {separation.gap:.4f}"
    print(line)
    return 0


def cmd_sweep(args) -> int:
    convert, _ = SWEEP_AXES[args.axis]
    try:
        values = [convert(tok) for tok in args.values]
    except ValueError as exc:
        raise _InputError(f"bad value for axis {args.axis}: {exc}") from exc
    rows = run_sweep(
        args.axis,
        values,
        args.reps,
        n=args.nodes,
        edge_spec=args.edges,
        overlap=args.overlap,
        sigma=args.sigma,
        dim=args.dim,
        seed=args.seed,
        normalize=args.normalize,
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)  # csv writes None as an empty field
    for row in rows:
        if row["seed"] == "summary":
            line = (
                f"{args.axis}={row['value']}: f1 {row['f1']:.4f}+/-{row['f1_std']:.4f}  "
                f"hgmse {row['hgmse']:.4f}+/-{row['hgmse_std']:.4f}"
            )
            if row["gap"] is not None:
                line += f"  min-gap {row['gap']:.3f}"
            print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperinfer",
        description="Infer hypergraph structure from node features under a smoothness prior.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="infer a hypergraph from a features CSV")
    p.add_argument("--features", required=True, help="node features CSV, no header")
    p.add_argument(
        "--sizes", required=True, type=_int_list, help="comma list of hyperedge sizes, e.g. 3,8"
    )
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--top-m", type=int, help="select the m most probable candidates")
    sel.add_argument(
        "--per-size", type=_count_map, help="per-size selection counts, e.g. 3=5,8=12"
    )
    p.add_argument("--variant", choices=VARIANT_KINDS, default="max")
    p.add_argument("--seed", type=int, default=0, help="seed for the random variant")
    p.add_argument(
        "--normalize", action="store_true", help="scale the whole matrix to unit variance first"
    )
    p.add_argument("--out", required=True, help="output hypergraph JSON")
    p.add_argument("--candidates", help="also write the scored candidate pool CSV here")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--nodes", required=True, type=int)
    p.add_argument(
        "--edges", required=True, type=_count_map, help="size=count list, e.g. 8=12"
    )
    p.add_argument("--overlap", required=True, type=float, help="target overlap rate")
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--dim", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score a prediction against ground truth")
    p.add_argument("--pred", required=True, help="predicted hypergraph JSON")
    p.add_argument("--truth", required=True, help="ground-truth hypergraph JSON")
    p.add_argument("--candidates", help="scored candidate CSV for separation stats")
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a one-axis experiment grid")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument(
        "--values", required=True, type=_comma_list, help="comma list of grid values"
    )
    p.add_argument("--reps", type=int, default=5, help="repetitions per grid value")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--edges", type=_count_map, default={8: 12})
    p.add_argument("--overlap", type=float, default=0.3)
    p.add_argument("--sigma", type=float, default=1e-3)
    p.add_argument("--dim", type=int, default=64, help="desk-scale feature dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True, help="long-format results CSV")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, OSError) as exc:  # OSError: an output that cannot be written
        code, message = 2, str(exc)
    except DomainError as exc:
        code, message = 3, str(exc)
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        code, message = 3, f"{args.command}: out of memory{detail}"
    # A message may quote a file's line breaks; each is written as \n, so it stays one line.
    print("error: " + "\\n".join(message.splitlines()), file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
