"""The traced benchmark run reports a per-layer metric only when the lieprop
function or method it needs exists; a renamed one drops its metrics from the
result without an error.  So every metric that BENCHMARK.json lists must name
something the tracer can wrap."""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name):
    """The namespace of perfbench/<name>.py, read and run without importing the file."""
    path = ROOT / "perfbench" / (name + ".py")
    namespace = {"__name__": "perfbench_" + name}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def _resolves(name, public_callables):
    """True if `name` is "<module>.<function>" or "<module>.<Class>.<method>" in lieprop,
    by the tracer's rules: a public callable defined in the module, or a plain function
    in the class body."""
    short, *rest = name.split(".")
    module = importlib.import_module("lieprop." + short)
    if len(rest) == 1:
        return rest[0] in dict(public_callables(module))
    cls = getattr(module, rest[0], None)
    return isinstance(cls, type) and inspect.isfunction(vars(cls).get(rest[1]))


def test_every_per_layer_metric_names_a_lieprop_callable():
    needs = {metric: need for metric, _, _, need in _perfbench("layers")["metric_specs"]()}
    public_callables = _perfbench("tracer")["public_callables"]
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = [metric["name"] for metric in json.load(fh)["per_layer"]]
    assert metrics and [metric for metric in metrics if metric not in needs] == []
    missing = sorted({need for need in map(needs.get, metrics)
                      if need is not None and not _resolves(need, public_callables)})
    assert missing == []
