"""Single-run protocol and one-axis sweep grids."""

import weakref

import numpy as np
import pytest

from conftest import forget_synthesis
from hyperinfer import (
    DomainError, InfeasibleError, SmoothnessVariant, experiments, run_protocol, run_sweep, synth,
)
from hyperinfer import io as hio
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
        forget_synthesis()
        b = run_protocol(40, {3: 4}, 0.2, dim=32, seed=3)
        assert a.selected.edges == b.selected.edges
        assert a.match.f1 == b.match.f1


def _count_synthesis(monkeypatch) -> dict:
    """How many trial plants and how many make_dataset calls run from here on."""
    calls = {"plants": 0, "datasets": 0}
    plant, make_dataset = synth._plant, experiments.make_dataset

    def planting(*args):
        calls["plants"] += 1
        return plant(*args)

    def sampling(cfg):
        calls["datasets"] += 1
        return make_dataset(cfg)

    monkeypatch.setattr(synth, "_plant", planting)
    monkeypatch.setattr(experiments, "make_dataset", sampling)
    return calls


def _written(result, tmp_path, name) -> tuple[bytes, bytes]:
    pred, pool = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    hio.write_hypergraph(pred, result.selected)
    hio.write_candidates(pool, result.candidates)
    return pred.read_bytes(), pool.read_bytes()


class TestDatasetReuse:
    BASE = dict(n=40, edge_spec={4: 5}, overlap=0.3, dim=16, seed=2, normalize=True)

    @pytest.mark.parametrize("kind", ["mean", "min", "random"])
    def test_another_variant_neither_replants_nor_resamples(self, tmp_path, monkeypatch, kind):
        variant = SmoothnessVariant(kind, seed=2 if kind == "random" else None)
        cold = _written(run_protocol(**self.BASE, variant=variant), tmp_path, "cold")
        forget_synthesis()
        calls = _count_synthesis(monkeypatch)
        run_protocol(**self.BASE)
        assert calls["plants"] >= 1 and calls["datasets"] == 1
        cold_calls = dict(calls)
        warm = run_protocol(**self.BASE, variant=variant)
        assert calls == cold_calls
        assert _written(warm, tmp_path, "warm") == cold

    @pytest.mark.parametrize(
        "change",
        [
            {"dim": 8},
            {"sigma": 2e-3},
            {"normalize": False},
            {"n": 41},
            {"edge_spec": {4: 4}},
            {"edge_spec": {3: 5}},
            {"overlap": 0.2},
            {"seed": 3},
        ],
    )
    def test_a_changed_config_or_normalize_synthesizes_again(self, monkeypatch, change):
        calls = _count_synthesis(monkeypatch)
        run_protocol(**self.BASE)
        plants = calls["plants"]
        run_protocol(**{**self.BASE, **change})
        assert calls["datasets"] == 2 and calls["plants"] > plants

    def test_an_infeasible_config_raises_on_every_call_and_keeps_nothing(self, monkeypatch):
        # Five 8-node edges cannot sit disjointly inside 10 nodes.
        run_protocol(**self.BASE)
        assert experiments._dataset is not None
        calls = _count_synthesis(monkeypatch)
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                run_protocol(10, {8: 5}, 0.0, dim=16)
            assert experiments._dataset is None
        assert calls["datasets"] == 2

    def test_the_old_features_are_freed_before_a_new_dataset_is_made(self, monkeypatch):
        run_protocol(**self.BASE)
        old = weakref.ref(experiments._dataset[1][2])
        make_dataset = experiments.make_dataset

        def sampling(cfg):
            assert old() is None, "the kept features outlived the miss"
            return make_dataset(cfg)

        monkeypatch.setattr(experiments, "make_dataset", sampling)
        run_protocol(**{**self.BASE, "seed": 3})

    def test_changing_a_returned_config_does_not_change_the_kept_key(self, monkeypatch):
        result = run_protocol(**self.BASE)
        with pytest.raises(TypeError):
            result.config.edge_spec[4] = 4
        assert experiments._dataset[0][0] is result.config
        calls = _count_synthesis(monkeypatch)
        second = run_protocol(**{**self.BASE, "edge_spec": {4: 4}})
        assert calls["datasets"] == 1 and second.truth.m == 4

    def test_the_inference_features_are_read_only(self):
        run_protocol(**self.BASE)
        x = experiments._dataset[1][2]
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 0.0


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

    def test_runs_go_seed_by_seed_and_rows_point_by_point(self, monkeypatch):
        order = []
        run = experiments.run_protocol

        def protocol(*args, **kwargs):
            order.append((kwargs["variant"].kind, kwargs["seed"]))
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_protocol", protocol)
        calls = _count_synthesis(monkeypatch)
        rows = run_sweep("variant", ["min", "max"], 3, n=40, edge_spec={4: 4}, dim=16, seed=4)
        assert order == [(kind, seed) for seed in (4, 5, 6) for kind in ("min", "max")]
        assert calls["datasets"] == 3
        assert [(r["value"], r["seed"]) for r in rows] == [
            (value, seed) for value in ("min", "max") for seed in (4, 5, 6, "summary")
        ]

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
        with pytest.raises(DomainError, match="at least one"):
            run_sweep("overlap", np.array([]), 1)

    @pytest.mark.parametrize(
        "grid", [np.array, lambda values: (v for v in values)], ids=["array", "generator"]
    )
    def test_any_iterable_grid_gives_the_list_grids_rows(self, grid):
        kwargs = dict(n=40, edge_spec={4: 4}, dim=16, seed=0)
        rows = run_sweep("overlap", [0.1, 0.3], 2, **kwargs)
        assert run_sweep("overlap", grid([0.1, 0.3]), 2, **kwargs) == rows


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
            forget_synthesis()
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
