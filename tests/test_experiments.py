"""Single-run protocol and one-axis sweep grids."""

import numpy as np
import pytest

from hyperinfer import DomainError, SmoothnessVariant, experiments, run_protocol, run_sweep
from hyperinfer.experiments import SWEEP_COLUMNS


class TestRunProtocol:
    def test_disjoint_planting_is_fully_recovered(self):
        result = run_protocol(60, {4: 6}, 0.0, dim=128, seed=0, normalize=True)
        assert result.match.f1 == 1.0
        assert result.hgmse == 0.0
        assert result.achieved_overlap == 0.0
        assert result.separation.gap is not None
        assert result.separation.gap > 0.0

    def test_result_carries_the_full_pool(self):
        result = run_protocol(40, {3: 4}, 1.0 / 6.0, dim=32, seed=1)
        assert result.candidates.probs is not None
        assert result.selected.m == 4
        assert result.truth.m == 4
        assert result.config.n == 40

    def test_same_arguments_same_outcome(self):
        a = run_protocol(40, {3: 4}, 0.2, dim=32, seed=3)
        b = run_protocol(40, {3: 4}, 0.2, dim=32, seed=3)
        assert a.selected.edges == b.selected.edges
        assert a.match.f1 == b.match.f1


class TestRunSweep:
    def test_row_counts_and_schema(self):
        rows = run_sweep(
            "overlap", [0.0, 0.2], 2, n=40, edge_spec={4: 4}, dim=16, seed=0
        )
        assert len(rows) == 6
        for row in rows:
            assert tuple(row) == SWEEP_COLUMNS
        summaries = [r for r in rows if r["seed"] == "summary"]
        assert [r["value"] for r in summaries] == [0.0, 0.2]

    def test_seeds_are_paired_across_values(self):
        rows = run_sweep(
            "overlap", [0.0, 0.2], 3, n=40, edge_spec={4: 4}, dim=16, seed=7
        )
        for value in (0.0, 0.2):
            seeds = [
                r["seed"] for r in rows if r["value"] == value and r["seed"] != "summary"
            ]
            assert seeds == [7, 8, 9]

    def test_summary_means_match_the_runs(self):
        rows = run_sweep("overlap", [0.1], 3, n=40, edge_spec={4: 4}, dim=16, seed=0)
        runs = [r for r in rows if r["seed"] != "summary"]
        summary = rows[-1]
        assert summary["f1"] == pytest.approx(np.mean([r["f1"] for r in runs]))
        assert summary["hgmse"] == pytest.approx(np.mean([r["hgmse"] for r in runs]))
        assert summary["f1_std"] == pytest.approx(np.std([r["f1"] for r in runs]))

    def test_infeasible_points_become_error_rows(self):
        # Five 8-node edges cannot sit disjointly inside 10 nodes, so that grid
        # point fails while the 60-node point still runs.
        rows = run_sweep(
            "nodes", [10, 60], 1, edge_spec={8: 5}, overlap=0.0, dim=16, seed=0
        )
        failed = [r for r in rows if r["value"] == 10]
        assert len(failed) == 1
        assert failed[0]["status"] == "error:InfeasibleError"
        assert failed[0]["f1"] is None
        assert failed[0]["gap"] is None
        ok = [r for r in rows if r["value"] == 60 and r["seed"] != "summary"]
        assert ok[0]["status"] == "ok"

    def test_out_of_memory_point_becomes_an_error_row(self, monkeypatch):
        # The run at n=50 raises MemoryError; the points on either side still run.
        run = experiments.run_protocol

        def protocol(n, *args, **kwargs):
            if n == 50:
                raise MemoryError
            return run(n, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_protocol", protocol)
        rows = run_sweep("nodes", [40, 50, 60], 1, edge_spec={4: 4}, dim=16)
        assert [(r["value"], r["seed"], r["status"]) for r in rows] == [
            (40, 0, "ok"), (40, "summary", "ok"),
            (50, 0, "error:MemoryError"),
            (60, 0, "ok"), (60, "summary", "ok"),
        ]
        assert rows[2]["f1"] is None and rows[2]["gap"] is None

    def test_unknown_variant_value_is_an_error_row(self):
        rows = run_sweep("variant", ["median"], 1, n=40, edge_spec={4: 4}, dim=16)
        assert rows[0]["status"] == "error:DomainError"
        assert rows[0]["gap"] is None

    def test_edge_size_axis_preserves_the_total_count(self):
        rows = run_sweep(
            "edge-size", [3], 1, n=60, edge_spec={4: 2, 6: 1}, overlap=0.0, dim=16
        )
        runs = [r for r in rows if r["seed"] != "summary"]
        assert runs[0]["status"] == "ok"
        # Three edges total regardless of the size under test: a full recovery
        # at overlap zero confirms the count carried over.
        assert runs[0]["f1"] == 1.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(DomainError, match="axis"):
            run_sweep("sigma", [1.0], 1)

    @pytest.mark.parametrize("axis, value", [("nodes", 40.5), ("edge-size", 3.5)])
    def test_fractional_grid_sizes_give_error_rows(self, axis, value):
        rows = run_sweep(axis, [value], 1, n=40, edge_spec={4: 2}, dim=8)
        assert [r["status"] for r in rows] == ["error:DomainError"]

    def test_bad_reps_and_empty_grid_rejected(self):
        with pytest.raises(DomainError, match="reps"):
            run_sweep("overlap", [0.1], 0)
        with pytest.raises(DomainError, match="at least one"):
            run_sweep("overlap", [], 1)


class TestSweepMatchesDirectRuns:
    """Each sweep row reports what a direct run_protocol call at seed + rep gives."""

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("overlap", [0.1, 0.3]),
            ("variant", ["max", "mean", "min", "random"]),
            ("nodes", [30, 50]),
            ("edge-size", [3, 5]),
        ],
    )
    def test_run_rows_equal_direct_protocol_runs(self, axis, values):
        seed, reps = 5, 3
        rows = run_sweep(
            axis, values, reps, n=40, edge_spec={4: 4}, dim=16, seed=seed, normalize=True
        )
        runs = [r for r in rows if r["seed"] != "summary"]
        assert len(runs) == len(values) * reps
        for i, row in enumerate(runs):
            rep_seed = seed + i % reps
            assert row["seed"] == rep_seed
            n = row["value"] if axis == "nodes" else 40
            # The edge-size axis keeps the base spec's total of four edges.
            spec = {row["value"]: 4} if axis == "edge-size" else {4: 4}
            overlap = row["value"] if axis == "overlap" else 0.3
            variant = None
            if axis == "variant":
                kind = row["value"]
                variant = SmoothnessVariant(
                    kind=kind, seed=rep_seed if kind == "random" else None
                )
            direct = run_protocol(
                n, spec, overlap, dim=16, seed=rep_seed, variant=variant, normalize=True
            )
            assert row["status"] == "ok"
            assert row["f1"] == direct.match.f1
            assert row["hgmse"] == direct.hgmse
            assert row["gap"] == direct.separation.gap

    def test_summary_gap_is_the_smallest_run_gap(self):
        rows = run_sweep(
            "overlap", [0.1, 0.3], 4, n=40, edge_spec={4: 4}, dim=16, seed=0, normalize=True
        )
        for value in (0.1, 0.3):
            point = [r for r in rows if r["value"] == value]
            gaps = [r["gap"] for r in point if r["seed"] != "summary"]
            assert all(g is not None for g in gaps)
            assert point[-1]["seed"] == "summary"
            assert point[-1]["gap"] == min(gaps)
