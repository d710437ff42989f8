"""Tests of the benchmark's own arithmetic, names and input generation.

Run with: python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _span(i, name, start, end, parent=None, cell=None):
    return tracing.Span(i, name, start, end, parent, cell)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "cli.evaluate_point", 1.0, 4.0, parent=0, cell=0),
        _span(2, "geometry.qgt", 2.0, 3.0, parent=1, cell=0),
        _span(3, "cli.evaluate_point", 5.0, 9.0, parent=0, cell=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        _span(0, "a", 0.0, 10.0),
        _span(1, "b", 1.0, 4.0, parent=0),
        _span(2, "c", 3.0, 6.0, parent=0),  # overlaps b: union is [1, 6]
        _span(3, "d", 9.0, 12.0, parent=0),  # runs past the parent: clipped to [9, 10]
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_links_parents_and_cells():
    ticks = iter(range(100))
    rec = tracing.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return rec.call("geometry.qgt", lambda: None)

    def cell():
        return rec.call("cli.evaluate_point", leaf)

    rec.call("cli.main", lambda: (cell(), cell()))
    by_name = [(s.name, s.parent, s.cell) for s in rec.spans]
    assert by_name == [
        ("cli.main", None, None),
        ("cli.evaluate_point", 0, 0),
        ("geometry.qgt", 1, 0),
        ("cli.evaluate_point", 0, 1),
        ("geometry.qgt", 3, 1),
    ]
    metrics = tracing.layer_metrics(rec.spans, {})
    root = rec.spans[0]
    assert metrics["trace.self_sum_s"] == pytest.approx(root.end - root.start)
    assert metrics["cli.evaluate_point.calls"] == 2
    assert metrics["cli.self_s"] == pytest.approx(
        metrics["trace.self_sum_s"] - metrics["geometry.qgt.self_s"]
    )


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metric_names_follow_the_grammar_and_match_what_is_emitted():
    bench = _benchmark()
    entries = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(e["unit"]) for e in bench["end_to_end"] + bench["per_layer"])
    emitted = set(tracing.layer_metrics([], {})) | set(run.RUN_LAYER_METRICS)
    assert {e["name"] for e in bench["per_layer"]} == emitted
    assert all(run.unit_of(e["name"]) == e["unit"] for e in bench["per_layer"])
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_identical_inputs(name):
    for seed in (0, 1, 12345):
        assert workloads.make(name, seed) == workloads.make(name, seed)
    assert workloads.make(name, 1) != workloads.make(name, 2)


def _grid_values(argv):
    from nessgeom.cli import SweepSpec, _parse_grid

    grids = [argv[i + 1] for i, a in enumerate(argv) if a == "--grid"]
    spec = SweepSpec(model="boundary_xy", axes=_parse_grid(grids), quantities=("gap",))
    return spec.grid()


@pytest.mark.parametrize("seed", range(20))
def test_grids_keep_their_size_and_stay_off_the_critical_points(seed):
    sweep = workloads.chain_sweep(seed)
    assert len(_grid_values(sweep.invocations[0].argv)[1]) == 7 * 30
    symbol = workloads.symbol_sweep(seed)
    sizes = [len(_grid_values(inv.argv)[1]) for inv in symbol.invocations]
    assert sizes == [20, 6, 40, 1]
    lam = _grid_values(symbol.invocations[0].argv)[1][:, 0]
    h = _grid_values(symbol.invocations[2].argv)[1][:, 0]
    assert min(abs(lam - workloads.RESERVOIR_CRITICAL)) >= 0.04 - 1e-12
    assert min(abs(h - 1.0)) >= 0.01 - 1e-12
