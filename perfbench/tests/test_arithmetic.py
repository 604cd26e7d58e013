"""The benchmark's own arithmetic: self time, the percentile rule, tables that add up."""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from perfbench.spans import Recorder, Span, length, self_times, subtract, union
from perfbench.tables import (
    MIN_BEYOND,
    beyond,
    offline_table,
    percentile,
    serve_table,
    supported,
)

ROOT = Path(__file__).resolve().parents[2]


def _span(pid, seq, parent, name, start, end, tid=1, tag=None):
    return Span((pid, seq), parent, name, start, end, tid, False, tag)


class TestIntervals:
    def test_union_merges_overlaps_and_drops_empty(self):
        assert union([(5, 9), (0, 3), (2, 4), (7, 7)]) == [(0, 4), (5, 9)]

    def test_subtract_clips_to_base(self):
        assert subtract((10, 20), [(0, 12), (15, 16), (19, 30)]) == [(12, 15), (16, 19)]
        assert length(subtract((0, 10), [])) == 10


class TestSelfTime:
    def test_tree_across_threads_and_processes(self):
        root = _span(1, 1, None, "root", 0, 100)
        spans = [
            root,
            _span(1, 2, root.key, "same-thread child", 10, 40),
            _span(1, 3, (1, 2), "grandchild", 15, 20),
            # Another thread's child overlaps the first child: covered once.
            _span(1, 4, root.key, "other-thread child", 30, 60, tid=2),
            # Another process's child outlives the root: clipped to the root.
            _span(2, 1, root.key, "other-process child", 90, 130),
        ]
        times = self_times(spans)
        assert times[(1, 1)] == 100 - 50 - 10
        assert times[(1, 2)] == 30 - 5
        assert times[(1, 3)] == 5
        assert times[(1, 4)] == 30
        assert times[(2, 1)] == 40

    def test_single_thread_tree_partitions_its_root(self):
        spans = [
            _span(1, 1, None, "root", 0, 50),
            _span(1, 2, (1, 1), "a", 5, 20),
            _span(1, 3, (1, 2), "b", 6, 9),
            _span(1, 4, (1, 1), "c", 20, 49),
        ]
        assert sum(self_times(spans).values()) == 50

    def test_recorder_links_parents_per_thread_and_counts_errors(self):
        recorder = Recorder()

        def inner():
            return 1

        def boom():
            raise ValueError("boom")

        inner_traced = recorder.wrap(inner, "inner")
        boom_traced = recorder.wrap(boom, "boom", tag="t")

        def outer():
            inner_traced()
            with pytest.raises(ValueError):
                boom_traced()

        outer_traced = recorder.wrap(outer, "outer")
        outer_traced()
        worker = threading.Thread(target=inner_traced)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        by_name = {}
        for span in recorder.spans:
            by_name.setdefault(span.name, []).append(span)
        (outer_span,) = by_name["outer"]
        assert outer_span.parent is None
        assert {span.parent for span in by_name["inner"]} == {outer_span.key, None}
        (boom_span,) = by_name["boom"]
        assert boom_span.failed and boom_span.tag == "t" and boom_span.parent == outer_span.key

    def test_rename_sees_open_spans(self):
        recorder = Recorder()
        leaf = recorder.wrap(lambda: None, "plain", rename=lambda names: "nested" if "outer" in names else "plain")
        with recorder.span("outer"):
            leaf()
        leaf()
        assert [span.name for span in recorder.spans] == ["nested", "outer", "plain"]


class TestPercentileRule:
    def test_p99_needs_a_thousand_samples(self):
        assert beyond(1000, 99) == MIN_BEYOND
        assert supported(1000, 99)
        assert not supported(999, 99)

    def test_other_levels(self):
        assert supported(667, 98.5) and not supported(666, 98.5)
        assert supported(20, 50) and not supported(19, 50)

    def test_nearest_rank_returns_a_measured_sample(self):
        values = [float(v) for v in range(1, 1001)]
        assert percentile(values, 50) == 500.0
        assert percentile(values, 99) == 990.0
        assert percentile(list(reversed(values)), 99) == 990.0
        assert percentile([3.5], 99) == 3.5
        with pytest.raises(ValueError):
            percentile([], 50)


class TestTablesAddUp:
    def test_offline_parent_and_workers(self):
        runner = _span(1, 1, None, "experiments.runner", 0, 1000)
        spans = [
            runner,
            _span(1, 2, runner.key, "data", 0, 100),
            _span(1, 3, runner.key, "experiments.parallel.share", 100, 150),
            _span(1, 4, runner.key, "experiments.parallel.wait", 150, 950),
            _span(2, 1, None, "experiments.parallel.chunk", 160, 900),
            _span(2, 2, (2, 1), "core.batch.sort", 200, 500),
            _span(2, 3, (2, 1), "engine.stacked.update_star", 500, 800),
            _span(3, 1, None, "experiments.parallel.chunk", 150, 600),
            _span(3, 2, (3, 1), "core.batch.sort", 160, 400),
        ]
        table = offline_table(spans, parent_pid=1, windows=[(0, 1000)], workers=2)
        assert table.basis_ns == 1000
        assert table.rows["experiments.runner"].self_ns == 50
        assert table.rows["experiments.parallel.wait"].self_ns == 800
        # Worker rows hold the summed worker time and count it over the two workers.
        assert table.rows["core.batch.sort"].self_ns == 300 + 240
        assert table.share("core.batch.sort") == (300 + 240) / 2 / 1000
        assert table.rows["engine.stacked.update_star"].basis_ns == 300 / 2
        # 2 workers x 800 ns of waiting, 740 + 450 ns of it inside chunks.
        assert table.rows["experiments.parallel.idle"].self_ns == 1600 - 1190
        assert table.share("experiments.parallel.idle") == (1600 - 1190) / 2 / 1000
        assert table.metrics(["core.batch.sort"])["core.batch.sort.self_ms"] == 540 / 1e6
        assert table.extras["experiments.parallel.efficiency"] == pytest.approx(1190 / 1600)
        # Chunk time outside any layer: (740 - 600) + (450 - 240).
        assert table.unattributed_ns == pytest.approx(350 / 2)
        assert table.adds_up()

    def test_offline_windows_restrict_the_basis(self):
        spans = [
            _span(1, 1, None, "experiments.runner", 0, 100),
            _span(1, 2, None, "experiments.runner", 200, 300),
            _span(1, 3, (1, 2), "data", 250, 260),
        ]
        table = offline_table(spans, parent_pid=1, windows=[(190, 310)], workers=2)
        assert table.basis_ns == 120
        assert table.rows["experiments.runner"].calls == 1
        assert table.unattributed_ns == 20
        assert table.adds_up()

    def test_serve_client_transport_and_server(self):
        client = [
            _span(0, 1, None, "loadgen.client", 0, 10),
            _span(0, 2, None, "request", 10, 110, tag="round"),
            _span(0, 3, None, "loadgen.client", 110, 115),
        ]
        handler = _span(9, 1, None, "serve.http.handler", 20, 60)
        server = [
            handler,
            _span(9, 2, handler.key, "serve.service", 25, 55),
            _span(9, 3, (9, 2), "serve.scheduler", 30, 50),
            _span(9, 4, (9, 3), "serve.scheduler", 31, 32, tag="submit_step"),
            # A background thread's span is not part of any request.
            _span(9, 5, None, "matchmaking.queue", 40, 45, tid=7),
        ]
        table = serve_table(client, server, basis_ns=120, window=(0, 120))
        assert table.rows["serve.http.transport"].self_ns == 100 - 40
        assert table.rows["serve.http.handler"].self_ns == 10
        assert table.rows["serve.service"].self_ns == 10
        assert table.rows["serve.scheduler"].calls == 1
        assert table.extras["serve.scheduler.queued_ratio"] == 1.0
        assert table.background_ns == 5
        assert table.unattributed_ns == 120 - 115
        assert table.adds_up()

    def test_a_table_that_does_not_add_up_is_detected(self):
        table = serve_table([], [], basis_ns=100, window=(0, 100))
        table.unattributed_ns = 90
        assert not table.adds_up()


def test_benchmark_json_matches_the_metrics_reported():
    from perfbench.run import E2E_UNITS, WORKLOADS, per_layer_names, per_layer_unit

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in declared["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == E2E_UNITS
    assert [m["name"] for m in declared["per_layer"]] == per_layer_names()
    assert all(m["unit"] == per_layer_unit(m["name"]) for m in declared["per_layer"])
