"""Tests of the benchmark's own code: `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from passes import margin_decades, MARGIN_CAP  # noqa: E402

def span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent)


def test_covered_length_merges_overlaps_and_skips_empty():
    assert spans.covered_length([]) == 0.0
    assert spans.covered_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert spans.covered_length([(5, 6), (0, 1), (0.5, 0.75)]) == pytest.approx(2.0)


def test_self_time_of_nested_spans():
    root = span("pass", 0.0, 10.0)
    a = span("a", 1.0, 4.0, root)
    a1 = span("a1", 1.5, 2.0, a)
    a2 = span("a2", 3.0, 3.5, a)
    b = span("b", 5.0, 9.0, root)
    # children of b on two threads overlap; their union counts once
    b1 = span("b1", 5.0, 7.0, b)
    b2 = span("b2", 6.0, 8.0, b)
    all_spans = [a1, a2, a, b1, b2, b, root]
    got = dict(zip((s.name for s in all_spans), spans.self_times(all_spans)))
    assert got["pass"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["a"] == pytest.approx(3.0 - 0.5 - 0.5)
    assert got["b"] == pytest.approx(4.0 - 3.0)
    assert [got[leaf] for leaf in ("a1", "a2", "b1", "b2")] == pytest.approx([0.5, 0.5, 2.0, 2.0])


def test_self_time_clips_children_to_the_parent():
    parent = span("p", 0.0, 2.0)
    child = span("c", 1.0, 5.0, parent)
    assert spans.self_times([child, parent])[1] == pytest.approx(1.0)


def test_busy_time_does_not_double_count_same_name_nesting():
    outer = span("x", 0.0, 4.0)
    inner = span("x", 1.0, 2.0, outer)
    other = span("y", 2.0, 3.0, outer)
    assert spans._busy_by_name([inner, other, outer]) == {"x": 4.0, "y": 1.0}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    first = workloads.scenario_texts(name, 7)
    assert first == workloads.scenario_texts(name, 7)
    assert first != workloads.scenario_texts(name, 8)
    assert [stem for stem, _ in first] == [stem for stem, _ in
                                           workloads.scenario_texts(name, 8)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(name, tmp_path):
    from fieldosc.cli import parse_scenario

    for seed in range(5):
        paths = workloads.write_configs(name, seed, tmp_path / str(seed))
        scenarios = [parse_scenario(p) for p in paths]
        assert len({s.name for s in scenarios}) == len(scenarios)


def test_margin_decades():
    assert margin_decades(1e-9, 1e-6) == pytest.approx(3.0)
    assert margin_decades(0.0, 1e-6) == MARGIN_CAP
    assert margin_decades(1e-3, 1e-6) == pytest.approx(-3.0)
    assert margin_decades(float("nan"), 1e-6) == -MARGIN_CAP
    assert margin_decades(float("inf"), 0.0) == -MARGIN_CAP


def test_tracer_records_and_restores(tmp_path):
    from fieldosc import cli, core, tdfields

    originals = (cli.parse_scenario, cli._RUNNERS["case1"], core.cross_matrix, tdfields.cross_matrix)
    path = workloads.write_configs("floquet-sweep", 0, tmp_path)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert cli.parse_scenario is not originals[0]
        assert tdfields.cross_matrix is core.cross_matrix is not originals[2]
        root = tracer.open("pass")
        cli.parse_scenario(path)
        core.cross_matrix((0.0, 0.0, 1.0))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert (cli.parse_scenario, cli._RUNNERS["case1"], core.cross_matrix,
            tdfields.cross_matrix) == originals
    parse = [s for s in tracer.spans if s.name == "cli.parse"]
    assert len(parse) == 1 and parse[0].parent is root
    assert tracer.counters() == {"core.cross_matrix_calls": 1}


def test_per_layer_names_match_benchmark_json():
    from fieldosc.cli import MODES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = spans.layer_metrics(spans.Tracer(), MODES, [1.0], 1.0)
    assert sorted(emitted) == sorted(m["name"] for m in spec["per_layer"])


def test_pool_tasks_inherit_the_submitting_span():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    pool_class = tracer._pool_class(ThreadPoolExecutor)

    def task(i):
        s = tracer.open(f"task{i}")
        tracer.close(s)
        return i

    root = tracer.open("pass")
    with pool_class(max_workers=2) as pool:
        assert list(pool.map(task, range(4))) == [0, 1, 2, 3]
    tracer.close(root)
    tasks = [s for s in tracer.spans if s.name.startswith("task")]
    assert len(tasks) == 4 and all(s.parent is root for s in tasks)
    c = tracer.counters()
    assert 0.0 < c["cli.pool_busy_s"] <= c["cli.pool_capacity_s"]
