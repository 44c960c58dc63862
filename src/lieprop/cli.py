"""Command-line driver: dimension tables, verification suites, homology
tables and basis exports, with machine-readable output.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error
(among them an --out that is a directory or whose directory does not exist).
The environment variable LIEPROP_WORKERS caps the number of worker
processes used to fan homology cells out in parallel (default 1); a
value that is not an integer >= 1 is a usage error.

Each verification suite is a generator of one truth value per case, and
one counter, `_counted`, turns it into (passed, cases): the cases up to
and including the first that fails.
"""

import argparse
import functools
import io
import json
import os
import random
import sys

from . import cecomplex, dgcat, mudelta, schur_oracle
from .catlie import HomElem, boxplus, compose, hom_basis, hom_dim, identity
from .mudelta import delta1_basis, delta1_dim

SUITES = ("catlie", "mudelta", "dg", "ce", "qsn", "oracle")


class RunConfig:
    """The options of one command, validated; "all" or no suite means every
    suite, and a repeated suite runs once, in the order first named."""

    def __init__(self, max_m=4, suites=(), format="text", seed=0, out=None, trials=100):
        self.max_m, self.suites, self.format = max_m, tuple(dict.fromkeys(suites)), format
        self.seed, self.out, self.trials = seed, out, trials
        if self.max_m < 1:
            raise ValueError("--max-m must be >= 1")
        if self.trials < 0:
            raise ValueError("--trials must be >= 0")
        bad = [s for s in self.suites if s not in SUITES + ("all",)]
        if bad:
            raise ValueError("unknown suite(s): %s" % ", ".join(bad))
        if "all" in self.suites or not self.suites:
            self.suites = SUITES
        if self.format not in ("json", "csv", "text"):
            raise ValueError("unknown format %r" % self.format)
        out_dir = os.path.dirname(self.out or "") or "."
        if self.out and (os.path.isdir(self.out) or not os.path.isdir(out_dir)):
            raise ValueError("--out must name a file in an existing directory, got %r" % self.out)

    def as_dict(self):
        return {"max_m": self.max_m, "suites": list(self.suites),
                "format": self.format, "seed": self.seed, "trials": self.trials}


def _workers():
    """LIEPROP_WORKERS as an int; ValueError unless it is an integer >= 1."""
    raw = os.environ.get("LIEPROP_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("LIEPROP_WORKERS must be an integer >= 1, got %r" % raw)
    return workers


def _homology_row(cell):
    c = dgcat.homology_cell(*cell)
    return {"m": cell[0], "n": cell[1], "h0": c.h0_dim, "h1": c.h1_dim}


def _homology_cells(max_m):
    """{m, n, h0, h1} for every cell n <= m <= max_m, in (m, n) order;
    optionally in worker processes."""
    cells = [(m, n) for m in range(0, max_m + 1) for n in range(0, m + 1)]
    workers = _workers()
    if workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_homology_row, cells))
    return [_homology_row(c) for c in cells]


# ---------------------------------------------------------------- suites

def _random_basis_elem(rng, m, n):
    d = hom_dim(m, n)
    return HomElem(m, n, {rng.randrange(d): 1}) if d else None


def _counted(suite):
    """The suite as (passed, cases): it yields one truth value per case, and
    the cases are counted up to and including the first false one."""
    @functools.wraps(suite)
    def run(max_m, seed, trials):
        passed, cases = True, 0
        for passed in map(bool, suite(max_m, seed, trials)):
            cases += 1
            if not passed:
                break
        return passed, cases
    return run


@_counted
def suite_catlie(max_m, seed, trials):
    rng = random.Random(seed)
    # dimension law: the closed form against the enumerated basis
    for m in range(0, min(max_m, 7) + 1):
        for n in range(0, m + 1):
            yield hom_dim(m, n) == len(hom_basis(m, n))
    # associativity / unit laws on random basis triples h o (g o f)
    for _ in range(trials):
        l = rng.randint(1, max_m)
        m = rng.randint(1, l)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        h = _random_basis_elem(rng, n, p)
        g = _random_basis_elem(rng, m, n)
        f = _random_basis_elem(rng, l, m)
        yield (compose(h, compose(g, f)) == compose(compose(h, g), f)
               and compose(identity(p), h) == h and compose(h, identity(n)) == h)
    # interchange law for the monoidal sum on random basis pairs
    for _ in range(trials // 2):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_basis_elem(rng, m, rng.randint(1, m))
        b = _random_basis_elem(rng, n, rng.randint(1, n))
        a2 = _random_basis_elem(rng, a.n, rng.randint(1, a.n))
        b2 = _random_basis_elem(rng, b.n, rng.randint(1, b.n))
        yield compose(boxplus(a2, b2), boxplus(a, b)) == boxplus(compose(a2, a), compose(b2, b))


@_counted
def suite_mudelta(max_m, seed, trials):
    rng = random.Random(seed + 1)
    for n in range(0, max_m + 1):
        for t in range(0, n + 1):
            yield mudelta.check_centrality(n, t)
    for n in range(0, min(max_m, 4) + 1):
        yield mudelta.check_lie_action(n)
    # retraction, compatibility and the chain-map condition of pi, cell by cell
    for m in range(0, max_m + 1):
        for n in range(0, m):
            yield cecomplex.ce_to_dgcat(m, n)["ok"]
    # bimodule axioms on random triples
    for _ in range(trials):
        m = rng.randint(2, max(2, max_m))
        n = rng.randint(1, m - 1)
        d1 = delta1_dim(m, n)
        if not d1:
            continue
        z = mudelta.Delta1Elem(m, n, {rng.randrange(d1): 1})
        g = _random_basis_elem(rng, n, rng.randint(1, n))
        f = _random_basis_elem(rng, rng.randint(m, m + 1), m)
        if not (g and f):
            continue
        # unit laws, middle compatibility, and mu_tilde_1 is a bimodule morphism
        left, right, mt1 = mudelta.delta1_act_left, mudelta.delta1_act_right, mudelta.mu_tilde_1
        yield (left(identity(n), z) == z and right(z, identity(m)) == z
               and left(g, right(z, f)) == right(left(g, z), f)
               and mt1(left(g, z)) == compose(g, mt1(z))
               and mt1(right(z, f)) == compose(mt1(z), f))
    # iota generation (left orbit + right symmetric action spans delta1)
    from .exactla import Echelon
    for m in range(1, max_m + 1):
        for n in range(0, m):
            ech = Echelon()
            target = delta1_dim(m, n)
            for g_bm in hom_basis(m - 1, n):
                z = mudelta.delta1_act_left(HomElem.from_basis(g_bm), mudelta.iota(m))
                for s in range(1, m + 1):
                    tau = list(range(1, m + 1))
                    tau[s - 1], tau[m - 1] = tau[m - 1], tau[s - 1]
                    ech.add(mudelta.delta1_act_in(z, tau).coords)
                    if ech.rank == target:
                        break
                if ech.rank == target:
                    break
            yield ech.rank == target


@_counted
def suite_dg(max_m, seed, trials):
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            for p in range(0, n + 1):
                yield mudelta.check_dg_square(m, n, p)
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            yield dgcat.check_h1_mu_trivial(m, n) and dgcat.syzygy_euler_check(m, n)


@_counted
def suite_ce(max_m, seed, trials):
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            for t in range(2, m - n + 1):
                k = cecomplex.d_squared_witness(m, n, t)  # one case per representative
                yield from (j != k for j in range(cecomplex.ce_dim(m, n, t)))
            dims = dict(cecomplex.ce_homology_dims(m, n))
            cell = dgcat.homology_cell(m, n)
            yield (dims.get(0, 0) == cell.h0_dim and dims.get(1, 0) == cell.h1_dim
                   and not any(v for t, v in dims.items() if t >= 2))


@_counted
def suite_qsn(max_m, seed, trials):
    for n in range(0, max_m + 1):
        yield cecomplex.check_H_ce_QSn(n) and cecomplex.naturality_check(n)


@_counted
def suite_oracle(max_m, seed, trials):
    wmax = min(max_m, 4)
    for d in (1, 2, 3):
        for n in range(0, min(3, wmax) + 1):
            for w in range(1, wmax + 1):
                yield schur_oracle.cross_check(d, n, w)


SUITE_FNS = {
    "catlie": suite_catlie,
    "mudelta": suite_mudelta,
    "dg": suite_dg,
    "ce": suite_ce,
    "qsn": suite_qsn,
    "oracle": suite_oracle,
}


# ---------------------------------------------------------------- commands

def _emit(config, payload, rows, header):
    """Write the payload in the configured format; rows drive csv/text."""
    if config.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif config.format == "csv":
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        widths = [max(len(str(r[i])) for r in ([header] + rows)) for i in range(len(header))]
        lines = ["  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip()
                 for r in [header] + rows]
        cfg = payload.get("config", {})
        lines.append("# config: " + " ".join("%s=%s" % (k, cfg[k]) for k in sorted(cfg)))
        text = "\n".join(lines) + "\n"
    _write(config, text)


def _write(config, text):
    """Write text to the --out file, or to stdout without one."""
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dims(config):
    cells = [{"m": m, "n": n, "hom_dim": hom_dim(m, n), "delta1_dim": delta1_dim(m, n),
              "ce_dims": [cecomplex.ce_dim(m, n, t) for t in range(0, m - n + 1)]}
             for m in range(0, config.max_m + 1) for n in range(0, m + 1)]
    rows = [[c["m"], c["n"], c["hom_dim"], c["delta1_dim"], ";".join(map(str, c["ce_dims"]))]
            for c in cells]
    payload = {"config": config.as_dict(), "cells": cells}
    _emit(config, payload, rows, ["m", "n", "hom_dim", "delta1_dim", "ce_dims"])
    return 0


def cmd_homology(config):
    cells = _homology_cells(config.max_m)
    rows = [[c["m"], c["n"], c["h0"], c["h1"]] for c in cells]
    payload = {"config": config.as_dict(), "cells": cells}
    _emit(config, payload, rows, ["m", "n", "h0", "h1"])
    return 0


def cmd_verify(config):
    results = []
    ok = True
    for name in config.suites:
        passed, cases = SUITE_FNS[name](config.max_m, config.seed, config.trials)
        ok = ok and passed
        results.append({"name": name, "pass": passed, "cases": cases})
    payload = {"config": config.as_dict(), "cells": _homology_cells(config.max_m),
               "suites": results}
    rows = [[r["name"], "pass" if r["pass"] else "FAIL", r["cases"]] for r in results]
    _emit(config, payload, rows, ["suite", "status", "cases"])
    return 0 if ok else 1


def _space_dim(space, m, n, t):
    """Dimension of the space whose basis `export-basis` prints."""
    if space == "hom":
        return hom_dim(m, n)
    if space == "delta1":
        return delta1_dim(m, n)
    return cecomplex.ce_dim(m, n, t)


def cmd_export_basis(config, m, n, space, t):
    if space == "hom":
        bms = hom_basis(m, n)
        items = [{"f": list(bm.f), "trees": list(bm.trees)} for bm in bms]
    elif space == "delta1":
        _, bms, _ = delta1_basis(m, n)
        items = [{"f": list(bm.f), "trees": list(bm.trees)} for bm in bms]
    else:
        items = [{"coords": {str(i): [c.numerator, c.denominator]
                             for i, c in sorted(x.coords.items())}}
                 for x in cecomplex.ce_basis(m, n, t)]
    payload = {"config": config.as_dict(),
               "space": space, "m": m, "n": n, "t": t, "basis": items}
    _write(config, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieprop",
        description="Exact verification engine for the Lie-operad PROP, its "
                    "two-term DG category and the Chevalley-Eilenberg complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-m", type=int, default=4, dest="max_m")
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--trials", type=int, default=100,
                       help="random triples per randomized suite")

    p = sub.add_parser("dims", help="hom / delta1 / CE dimension tables")
    common(p)
    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", action="append", default=[],
                   help="one of %s or all; repeatable" % (", ".join(SUITES)))
    p = sub.add_parser("homology", help="H0/H1 dimension table")
    common(p)
    p = sub.add_parser("export-basis", help="export a basis as JSON")
    common(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space", choices=("hom", "delta1", "ce"), default="hom")
    p.add_argument("--t", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(max_m=args.max_m,
                           suites=tuple(getattr(args, "suite", ())),
                           format=args.format, seed=args.seed, out=args.out,
                           trials=args.trials)
        _workers()  # fail before any work starts
        if args.command == "export-basis":
            for flag in ("m", "n", "t"):
                if getattr(args, flag) < 0:
                    raise ValueError("--%s must be >= 0" % flag)
            if args.n > args.m:
                raise ValueError("--n must be <= --m (Hom(m, n) is zero for n > m)")
            if not _space_dim(args.space, args.m, args.n, args.t):
                raise ValueError("the %s basis for --m %d --n %d%s is empty" % (
                    args.space, args.m, args.n,
                    " --t %d" % args.t if args.space == "ce" else ""))
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "dims":
        return cmd_dims(config)
    if args.command == "homology":
        return cmd_homology(config)
    if args.command == "verify":
        return cmd_verify(config)
    return cmd_export_basis(config, args.m, args.n, args.space, args.t)


if __name__ == "__main__":
    sys.exit(main())
