"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They take well under a minute: one test runs a verify-m5 job untraced and traced.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402


def toy_module(name, source):
    mod = types.ModuleType(name)
    exec(source, vars(mod))
    return mod


TOY_B = """
from toy_a import inner
TABLE = {"inner": inner}

def outer(tick):
    tick(1.0)
    inner(tick)
    TABLE["inner"](tick)
    tick(3.0)
"""


def test_self_time_of_nested_calls():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    a = toy_module("toy_a", "def inner(tick):\n    tick(2.0)\n")
    sys.modules["toy_a"] = a
    try:
        b = toy_module("toy_b", TOY_B)
    finally:
        del sys.modules["toy_a"]
    original_inner = a.inner
    tracer = Tracer(clock=lambda: now[0])
    tracer.install({"a": a, "b": b}, methods=[("a", "Missing", "method", "a.missing")])
    assert b.inner is a.inner is b.TABLE["inner"] is not original_inner
    b.outer(tick)
    tracer.uninstall()
    assert a.inner is b.inner is b.TABLE["inner"] is original_inner
    b.outer(tick)  # untraced again: records nothing

    spans = tracer.spans(wall_s=8.0)
    assert spans.installed == {"a.inner", "b.outer"}
    got = sorted((spans.names[n], p, e - s, st) for n, p, s, e, st in
                 zip(spans.name_ids, spans.parents, spans.starts, spans.ends, spans.self_times()))
    outer_id = spans.ids[[spans.names[n] for n in spans.name_ids].index("b.outer")]
    assert got == [("a.inner", outer_id, 2.0, 2.0), ("a.inner", outer_id, 2.0, 2.0),
                   ("b.outer", -1, 8.0, 4.0)]


def test_scaled_time_counts_each_stretch_at_the_speed_of_the_kernel_run_ending_it():
    sampler = speed.Sampler()
    ref = speed.TAU_REF
    sampler.samples = [(1.0, 2 * ref), (2.0, ref)]   # half speed, then full speed
    assert abs(sampler.scaled(0.0, 3.0) - (0.5 + (1.0 - 2 * ref) + (1.0 - ref))) < 1e-12
    assert abs(sampler.scaled(1.5, 2.5) - (0.5 + (0.5 - ref))) < 1e-12
    assert sampler.kernel_s(0.0, 3.0) == 3 * ref and sampler.kernel_s(1.5, 3.0) == ref


def test_sampler_runs_the_kernel_on_its_timer():
    sampler = speed.Sampler()
    sampler.start(0.005)
    t0 = time.monotonic()
    while time.monotonic() - t0 < 0.2:
        sum(range(1000))
    t1 = time.monotonic()
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.scaled(t0, t1)
    assert 0.0 < sampler.kernel_s(t0, t1) < t1 - t0


def test_spans_round_trip_through_a_file(tmp_path):
    tracer = Tracer()
    f = tracer.wrap("x.f", lambda v: v + 1, aux=lambda args, result: result)
    assert f(41) == 42
    path = str(tmp_path / "spans.bin")
    tracer.spans(wall_s=1.5).write(path)
    spans = Spans.read(path)
    assert spans.names == ["x.f"] and spans.wall_s == 1.5
    assert list(spans.aux) == [42] and list(spans.parents) == [-1]


def test_metric_of_a_missing_name_is_absent():
    tracer = Tracer()
    tracer.installed = {"exactla.Echelon.add", "dgcat.homology_cell"}
    metrics = layers.compute(tracer.spans(wall_s=2.0), 1.5)
    assert metrics["exactla.add.vectors_added"]["value"] == 0
    assert metrics["trace.overhead_s"]["value"] == 0.5
    assert "catlie.fibers.self_s" not in metrics
    assert "exactla.add_tracked.self_s" in metrics


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [spec[:3] for spec in layers.metric_specs()]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb",
                                                         "ops_total"}


def reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def test_perturbed_homology_reference_fails_one_op():
    ref = reference()
    output = {"exit": 0, "report": {"cells": [
        {"m": m, "n": n, "h0": h0, "h1": h1} for m, n, h0, h1 in ref["homology"]]}}
    homology = workloads.WORKLOADS["homology-m6"]
    assert homology.check(output, ref) == []
    bad = copy.deepcopy(ref)
    bad["homology"][-2][3] += 1   # h1 of cell (6, 5)
    assert len(homology.check(output, bad)) == 1


def test_perturbed_oracle_reference_fails_one_op():
    ref = reference()
    oracle = workloads.WORKLOADS["oracle-w6"]
    output = [True] * oracle.ops
    assert oracle.check(output, ref) == []
    bad = copy.deepcopy(ref)
    bad["oracle_direct"][-1][3] += 1
    assert len(oracle.check(output, bad)) == 1
    output[0] = False
    assert len(oracle.check(output, ref)) == 1


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    deadline = time.monotonic() + 150
    plain = run.spawn("verify-m5", 3, "job", deadline)
    traced = run.spawn("verify-m5", 3, "traced", deadline, spans=str(tmp_path / "s.bin"))
    assert plain["failures"] == [] and traced["failures"] == []
    assert plain["output"] == traced["output"]
    assert len(Spans.read(str(tmp_path / "s.bin"))) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-m5",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
