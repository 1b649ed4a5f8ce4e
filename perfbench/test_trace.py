"""Tests of the benchmark's span arithmetic, tracer, pass accounting and metric lists."""

import json
import sys
import types
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER
from perfbench.run import WORKLOAD_NAMES, _best_pass_seconds, _check_passes
from perfbench.trace import Target, Tracer, self_time, union_length

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("children, expected", [
    ([], 10.0),                                # no children: all self
    ([(1.0, 3.0), (5.0, 6.0)], 7.0),           # disjoint children
    ([(1.0, 4.0), (2.0, 6.0)], 5.0),           # overlap counted once
    ([(2.0, 8.0), (3.0, 4.0)], 4.0),           # nested interval inside another
    ([(-5.0, 2.0), (9.0, 20.0)], 7.0),         # clipped to the parent span
    ([(12.0, 15.0)], 10.0),                    # entirely outside the parent
    ([(0.0, 10.0)], 0.0),                      # child covers the whole parent
])
def test_self_time_is_duration_minus_union_of_children(children, expected):
    assert self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_union_length_is_order_independent():
    intervals = [(4.0, 5.0), (0.0, 2.0), (1.0, 3.0)]
    assert union_length(intervals, 0.0, 10.0) == union_length(intervals[::-1], 0.0, 10.0) == 4.0


@pytest.fixture
def toy_package(monkeypatch):
    """``toy.kernel`` defines ``leaf``; ``toy.user`` imports it by name."""
    kernel = types.ModuleType("toy.kernel")
    exec("def leaf(x):\n    return x + 1\n", kernel.__dict__)
    user = types.ModuleType("toy.user")
    user.leaf = kernel.leaf
    exec("def outer(n):\n    return sum(leaf(i) for i in range(n))\n", user.__dict__)
    package = types.ModuleType("toy")
    for name, module in (("toy", package), ("toy.kernel", kernel), ("toy.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return kernel, user


def test_tracer_wraps_every_binding_and_restores(toy_package):
    kernel, user = toy_package
    original = kernel.leaf
    seen = []
    targets = [Target("toy.kernel", "leaf", "kernel.leaf",
                      lambda counters, args, kwargs, result: seen.append(result)),
               Target("toy.user", "outer", "user.outer"),
               Target("toy.kernel", "absent", "kernel.absent")]
    with Tracer(targets, package="toy") as tracer:
        assert user.outer(3) == 6
        assert kernel.leaf(10) == 11
    assert kernel.leaf is original and user.leaf is original
    assert tracer.stats["kernel.leaf"].calls == 4
    assert tracer.stats["user.outer"].calls == 1
    assert tracer.edges[("user.outer", "kernel.leaf")] == 3
    assert seen == [1, 2, 3, 11]
    assert tracer.missing == ["toy.kernel.absent"]
    outer = tracer.stats["user.outer"]
    assert 0.0 <= outer.self_s <= outer.total_s


def test_pass_time_sums_each_parts_fastest_repeat():
    assert _best_pass_seconds([[1.0, 3.0], [2.0, 1.5], [0.5, 4.0]]) == 2.0


def test_a_pass_that_does_not_repeat_the_first_fails_whole():
    from perfbench.workloads import PassResult

    class OneFailingOneKnownCheck:
        def check(self, state, result):
            return 1, 2, {}

    def pass_with(fingerprint):
        return 0.0, PassResult(ops=10, raised=0, work=10, fingerprint=fingerprint,
                               chunk_s=[1.0])

    failed, off_spec, details = _check_passes(
        OneFailingOneKnownCheck(), None, [pass_with("a"), pass_with("a"), pass_with("b")])
    assert failed == 1 + 1 + 10
    assert off_spec == 2 + 2 + 10
    assert details["fingerprint_mismatch"] == ["a", "b"]


def test_a_known_defect_fails_only_past_its_cap(tmp_path, monkeypatch):
    from perfbench import workloads

    refs = [{"figure": "f", "label": name, "snr_db": 0.0, "pmd": 0.5, "tol": 1e-10}
            for name in ("good", "known", "worse", "new")]
    (tmp_path / "refs.json").write_text(json.dumps({"points": refs}))
    monkeypatch.setattr(workloads, "KNOWN_DEFECTS", {("f", "known", 0.0): 1e-8,
                                                      ("f", "worse", 0.0): 1e-8})
    figures = workloads.FiguresAnalytic()
    figures.refs_path = tmp_path / "refs.json"
    outputs = {("f", "good", 0.0): (0.0, 0.5 + 5e-11), ("f", "known", 0.0): (0.0, 0.5 + 5e-9),
               ("f", "worse", 0.0): (0.0, 0.5 + 5e-8), ("f", "new", 0.0): (0.0, 0.5 + 5e-9)}
    result = workloads.PassResult(ops=4, raised=0, work=4, fingerprint="", chunk_s=[],
                                  outputs=outputs)
    failed, off_spec, details = figures.check(None, result)
    assert (failed, off_spec) == (2, 3)
    assert [d["point"][1] for d in details["flagged"]] == ["worse", "new"]
    assert [d["point"][1] for d in details["known_defects"]] == ["known"]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
