"""Checks of the benchmark itself: exact counters and a transparent trace.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Each workload is traced twice with the same seed, in separate processes
as ``run.py --trace 1`` does; that takes about two minutes in all.
"""

from __future__ import annotations

import importlib

import pytest

import run

EXACT = [name for name in run.PER_LAYER if not name.endswith("_s")]


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced_twice(request):
    workload = request.param
    first, _ = run._worker("trace", workload, 1)
    second, _ = run._worker("trace", workload, 1)
    return workload, first, second


def _counts(result):
    metrics, _ = run.per_layer_metrics(result)
    return {name: metrics[name]["value"] for name in EXACT}


def test_same_seed_gives_identical_counts(traced_twice):
    _, first, second = traced_twice
    assert _counts(first) == _counts(second)
    assert first["insert_entries"] == second["insert_entries"]
    assert first["spans"] == second["spans"]


def test_traced_pass_gives_the_untraced_outputs(traced_twice):
    _, first, second = traced_twice
    assert first["outputs_match"]
    assert second["outputs_match"]


def test_only_named_hostile_inputs_fail(traced_twice):
    workload, first, _ = traced_twice
    assert first["unexpected"] == []
    assert set(first["hostile_failed"]) <= set(importlib.import_module(workload).HOSTILE)


def test_counters_see_the_layer_each_workload_loads(traced_twice):
    workload, first, _ = traced_twice
    counts = _counts(first)
    if workload == "flat_cli":
        assert counts["paths.is_prefix_of_calls"] > 0
        assert counts["formats.scan_lines"] > 0
        assert counts["formats.diagnostics"] > 0
        assert counts["core.insert_calls"] > 0
    elif workload == "nested_query":
        assert counts["core.insert_calls"] == 0
        assert counts["core.lookup_calls"] > 0
        assert counts["core.path_map_calls"] > 0
    else:
        assert counts["core.insert_calls"] > 0
        assert counts["formats.scan_lines"] == 0
