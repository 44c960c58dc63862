"""Which parts of lieprop the traced run instruments, and the per-layer
metrics computed from its spans.

A layer is one lieprop module.  Every public function of each module is
wrapped, plus the methods `Echelon.add` (split into tracked and untracked
by the public `track` attribute), `Echelon.reduce`, `Echelon.solve` and
`SwModule.act`.  A metric whose function or method does not exist in the
program under test is left out of the result rather than failing the run.
"""

import importlib
from collections import defaultdict

MODULES = ("exactla", "freelie", "catlie", "mudelta", "dgcat", "cecomplex",
           "schur_oracle", "cli")


def _add_span(args):
    return "exactla.add_tracked" if getattr(args[0], "track", False) else "exactla.add_untracked"


METHODS = (
    ("exactla", "Echelon", "add", _add_span),
    ("exactla", "Echelon", "reduce", "exactla.reduce"),
    ("exactla", "Echelon", "solve", "exactla.solve"),
    ("schur_oracle", "SwModule", "act", "schur_oracle.SwModule.act"),
)

M6_CELLS = (1, 2, 3, 4, 5)  # (6, 0) and (6, 6) have no delta1 columns


def _cell_aux(args, result):
    return 100 * args[0] + args[1] if len(args) == 2 else -1


def aux_hooks():
    """Aux values: 1 if `add` grew the rank, 1 for a tree `normalize_tree`
    has not seen before in this run, and 100*m + n for `homology_cell`."""
    seen = set()

    def first_seen(args, result):
        tree = args[0]
        try:
            if tree in seen:
                return 0
            seen.add(tree)
        except TypeError:
            pass
        return 1

    return {"exactla.Echelon.add": lambda args, result: int(bool(result)),
            "freelie.normalize_tree": first_seen,
            "dgcat.homology_cell": _cell_aux}


def install(tracer):
    modules = {}
    for name in MODULES:
        try:
            modules[name] = importlib.import_module("lieprop." + name)
        except ModuleNotFoundError:   # a module removed later: its metrics are absent
            continue
    tracer.install(modules, METHODS, aux_hooks())


# (span name, the installed function or method it needs)
SELF_AND_CALLS = [
    ("exactla.add_tracked", "exactla.Echelon.add"),
    ("exactla.add_untracked", "exactla.Echelon.add"),
    ("exactla.reduce", "exactla.Echelon.reduce"),
    ("exactla.solve", "exactla.Echelon.solve"),
    ("freelie.normalize_tree", None),
    ("catlie.fibers", None),
    ("catlie.compose_basis", None),
    ("catlie.compose", None),
    ("catlie.act_in", None),
    ("mudelta.mu_tilde_1", None),
    ("mudelta.pi", None),
    ("mudelta.delta1_act_left", None),
    ("mudelta.delta1_act_right", None),
    ("mudelta.delta1_act_in", None),
    ("dgcat.homology_cell", None),
    ("cecomplex.ce_basis", None),
    ("cecomplex.ce_diff", None),
    ("cecomplex.ce_homology_dims", None),
    ("cecomplex.coend_relations", None),
    ("schur_oracle.schur_dim", None),
    ("schur_oracle.SwModule.act", "schur_oracle.SwModule.act"),
    ("schur_oracle.h_modules", None),
    ("schur_oracle.weighted_complex_homology", None),
]
CALLS_ONLY = ["mudelta.mu"]
# Inclusive time as well: schur_oracle spends its time in the exactla calls it makes.
TOTAL = ["schur_oracle.schur_dim", "schur_oracle.SwModule.act", "schur_oracle.h_modules",
         "schur_oracle.weighted_complex_homology"]
SUITES = ("catlie", "mudelta", "dg", "ce", "qsn", "oracle")


def metric_specs():
    """(metric name, unit, better, installed name it needs) for every per-layer metric."""
    specs = []
    for span, needs in SELF_AND_CALLS:
        specs.append((span + ".self_s", "s", "lower", needs or span))
        specs.append((span + ".calls", "count", "lower", needs or span))
    for span in CALLS_ONLY:
        specs.append((span + ".calls", "count", "lower", span))
    for span in TOTAL:
        specs.append((span + ".total_s", "s", "lower", dict(SELF_AND_CALLS)[span] or span))
    add = "exactla.Echelon.add"
    for suffix in [""] + [".m6n%d" % n for n in M6_CELLS]:
        specs.append(("exactla.add.useful_ratio" + suffix, "ratio", "higher", add))
        specs.append(("exactla.add.rank_gained" + suffix, "count", "higher", add))
        specs.append(("exactla.add.vectors_added" + suffix, "count", "lower", add))
    specs.append(("freelie.normalize_tree.distinct", "count", "lower", "freelie.normalize_tree"))
    specs.append(("freelie.normalize_tree.distinct_ratio", "ratio", "higher",
                  "freelie.normalize_tree"))
    for n in M6_CELLS:
        specs.append(("dgcat.homology_cell.m6n%d.s" % n, "s", "lower", "dgcat.homology_cell"))
    for suite in SUITES:
        specs.append(("cli.suite_%s.s" % suite, "s", "lower", "cli.suite_" + suite))
    for mod in MODULES:
        specs.append(("layer.%s.self_s" % mod, "s", "lower", None))
    specs.append(("trace.wall_s", "s", "lower", None))
    specs.append(("trace.overhead_s", "s", "lower", None))
    specs.append(("trace.spans", "count", "lower", None))
    return specs


def compute(spans, untraced_wall_s):
    """{metric: value} from traced spans; absent when the needed name was not installed."""
    self_s = spans.self_times()
    name_self = defaultdict(float)
    name_calls = defaultdict(int)
    name_total = defaultdict(float)   # inclusive seconds, per span name
    layer_self = defaultdict(float)
    cell_total = defaultdict(float)   # inclusive seconds, per homology cell
    cell_span = {}                    # span id -> cell aux, for homology_cell spans
    adds = []                         # (span id, rank gained)
    distinct = 0
    names = spans.names
    for k, (sid, ni, t0, t1, aux) in enumerate(zip(spans.ids, spans.name_ids,
                                                    spans.starts, spans.ends, spans.aux)):
        name = names[ni]
        name_self[name] += self_s[k]
        name_calls[name] += 1
        name_total[name] += t1 - t0
        layer_self[name.split(".", 1)[0]] += self_s[k]
        if name == "dgcat.homology_cell":
            cell_total[aux] += t1 - t0
            cell_span[sid] = aux
        elif name in ("exactla.add_tracked", "exactla.add_untracked"):
            adds.append((sid, aux))
        elif name == "freelie.normalize_tree":
            distinct += aux

    parent_of = spans.parent_of()
    gained = defaultdict(int)
    added = defaultdict(int)
    for sid, g in adds:
        added[None] += 1
        gained[None] += g
        p = parent_of[sid]
        while p >= 0 and p not in cell_span:
            p = parent_of[p]
        if p >= 0:
            added[cell_span[p]] += 1
            gained[cell_span[p]] += g

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for span, _ in SELF_AND_CALLS:
        values[span + ".self_s"] = name_self[span]
        values[span + ".calls"] = name_calls[span]
    for span in CALLS_ONLY:
        values[span + ".calls"] = name_calls[span]
    for span in TOTAL:
        values[span + ".total_s"] = name_total[span]
    for key, suffix in [(None, "")] + [(600 + n, ".m6n%d" % n) for n in M6_CELLS]:
        values["exactla.add.useful_ratio" + suffix] = ratio(gained[key], added[key])
        values["exactla.add.rank_gained" + suffix] = gained[key]
        values["exactla.add.vectors_added" + suffix] = added[key]
    calls = name_calls["freelie.normalize_tree"]
    values["freelie.normalize_tree.distinct"] = distinct
    values["freelie.normalize_tree.distinct_ratio"] = ratio(distinct, calls)
    for n in M6_CELLS:
        values["dgcat.homology_cell.m6n%d.s" % n] = cell_total[600 + n]
    for suite in SUITES:
        values["cli.suite_%s.s" % suite] = name_total["cli.suite_" + suite]
    for mod in MODULES:
        values["layer.%s.self_s" % mod] = layer_self[mod]
    values["trace.wall_s"] = spans.wall_s
    values["trace.overhead_s"] = spans.wall_s - untraced_wall_s
    values["trace.spans"] = len(spans)

    out = {}
    for name, unit, _, needs in metric_specs():
        if needs is None or needs in spans.installed:
            out[name] = {"value": values[name], "unit": unit}
    return out
