"""Command-line driver: dimension tables, verification suites, homology
tables and basis exports, with machine-readable output.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage error.
The environment variable LIEPROP_WORKERS caps the number of worker
processes used to fan homology cells out in parallel (default 1); a
value that is not an integer >= 1 is a usage error.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
from dataclasses import dataclass

from . import cecomplex, dgcat, mudelta, schur_oracle
from .catlie import HomElem, boxplus, compose, hom_basis, hom_dim, identity
from .mudelta import delta1_basis, delta1_dim

SUITES = ("catlie", "mudelta", "dg", "ce", "qsn", "oracle")


@dataclass
class RunConfig:
    max_m: int = 4
    suites: tuple = ()
    format: str = "text"
    seed: int = 0
    out: str = None
    trials: int = 100

    def __post_init__(self):
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


def _homology_pair(cell):
    c = dgcat.homology_cell(*cell)
    return cell, (c.h0_dim, c.h1_dim)


def _map_cells(cells):
    """(m, n) -> (h0, h1) over a list of cells, optionally in worker processes."""
    workers = _workers()
    if workers > 1 and len(cells) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return dict(ex.map(_homology_pair, cells))
    return dict(_homology_pair(c) for c in cells)


# ---------------------------------------------------------------- suites

def _random_basis_elem(rng, m, n):
    d = hom_dim(m, n)
    return HomElem(m, n, {rng.randrange(d): 1}) if d else None


def suite_catlie(max_m, seed, trials):
    rng = random.Random(seed)
    cases = 0
    # dimension law: the closed form against the enumerated basis
    for m in range(0, min(max_m, 7) + 1):
        for n in range(0, m + 1):
            cases += 1
            if hom_dim(m, n) != len(hom_basis(m, n)):
                return False, cases
    # associativity / unit laws on random basis triples h o (g o f)
    for _ in range(trials):
        l = rng.randint(1, max_m)
        m = rng.randint(1, l)
        n = rng.randint(1, m)
        p = rng.randint(1, n)
        h = _random_basis_elem(rng, n, p)
        g = _random_basis_elem(rng, m, n)
        f = _random_basis_elem(rng, l, m)
        cases += 1
        if compose(h, compose(g, f)) != compose(compose(h, g), f):
            return False, cases
        if compose(identity(p), h) != h or compose(h, identity(n)) != h:
            return False, cases
    # interchange law for the monoidal sum on random basis pairs
    for _ in range(trials // 2):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        a = _random_basis_elem(rng, m, rng.randint(1, m))
        b = _random_basis_elem(rng, n, rng.randint(1, n))
        a2 = _random_basis_elem(rng, a.n, rng.randint(1, a.n))
        b2 = _random_basis_elem(rng, b.n, rng.randint(1, b.n))
        cases += 1
        if compose(boxplus(a2, b2), boxplus(a, b)) != boxplus(compose(a2, a), compose(b2, b)):
            return False, cases
    return True, cases


def suite_mudelta(max_m, seed, trials):
    rng = random.Random(seed + 1)
    cases = 0
    for n in range(0, max_m + 1):
        for t in range(0, n + 1):
            cases += 1
            if not mudelta.check_centrality(n, t):
                return False, cases
    for n in range(0, min(max_m, 4) + 1):
        cases += 1
        if not mudelta.check_lie_action(n):
            return False, cases
    # retraction and compatibility of pi, cell by cell
    for m in range(0, max_m + 1):
        for n in range(0, m):
            cases += 1
            rep = cecomplex.ce_to_dgcat(m, n)
            if not (rep["retraction"] and rep["mu_compat"]):
                return False, cases
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
        cases += 1
        # unit laws
        if mudelta.delta1_act_left(identity(n), z) != z:
            return False, cases
        if mudelta.delta1_act_right(z, identity(m)) != z:
            return False, cases
        # middle compatibility
        lhs = mudelta.delta1_act_left(g, mudelta.delta1_act_right(z, f))
        rhs = mudelta.delta1_act_right(mudelta.delta1_act_left(g, z), f)
        if lhs != rhs:
            return False, cases
        # mu_tilde_1 is a bimodule morphism
        if mudelta.mu_tilde_1(mudelta.delta1_act_left(g, z)) != compose(g, mudelta.mu_tilde_1(z)):
            return False, cases
        if mudelta.mu_tilde_1(mudelta.delta1_act_right(z, f)) != compose(mudelta.mu_tilde_1(z), f):
            return False, cases
    # iota generation (left orbit + right symmetric action spans delta1)
    from .exactla import Echelon
    for m in range(1, max_m + 1):
        for n in range(0, m):
            cases += 1
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
            if ech.rank != target:
                return False, cases
    return True, cases


def suite_dg(max_m, seed, trials):
    cases = 0
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            for p in range(0, n + 1):
                cases += 1
                if not mudelta.check_dg_square(m, n, p):
                    return False, cases
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            cases += 1
            if not dgcat.check_h1_mu_trivial(m, n):
                return False, cases
            if not dgcat.syzygy_euler_check(m, n):
                return False, cases
    return True, cases


def suite_ce(max_m, seed, trials):
    cases = 0
    for m in range(0, max_m + 1):
        for n in range(0, m + 1):
            for t in range(2, m - n + 1):
                k = cecomplex.d_squared_witness(m, n, t)  # one case per representative
                if k is not None:
                    return False, cases + k + 1
                cases += cecomplex.ce_dim(m, n, t)
            cases += 1
            dims = dict(cecomplex.ce_homology_dims(m, n))
            cell = dgcat.homology_cell(m, n)
            if dims.get(0, 0) != cell.h0_dim or dims.get(1, 0) != cell.h1_dim:
                return False, cases
            if any(v for t, v in dims.items() if t >= 2):
                return False, cases
    return True, cases


def suite_qsn(max_m, seed, trials):
    cases = 0
    for n in range(0, max_m + 1):
        cases += 1
        if not cecomplex.check_H_ce_QSn(n):
            return False, cases
        if not cecomplex.naturality_check(n):
            return False, cases
    return True, cases


def suite_oracle(max_m, seed, trials):
    cases = 0
    wmax = min(max_m, 4)
    for d in (1, 2, 3):
        for n in range(0, min(3, wmax) + 1):
            for w in range(1, wmax + 1):
                cases += 1
                if not schur_oracle.cross_check(d, n, w):
                    return False, cases
    return True, cases


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
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dims(config):
    rows = []
    cells = []
    for m in range(0, config.max_m + 1):
        for n in range(0, m + 1):
            ce_dims = [cecomplex.ce_dim(m, n, t) for t in range(0, m - n + 1)]
            cells.append({"m": m, "n": n, "hom_dim": hom_dim(m, n),
                          "delta1_dim": delta1_dim(m, n), "ce_dims": ce_dims})
            rows.append([m, n, hom_dim(m, n), delta1_dim(m, n),
                         ";".join(str(v) for v in ce_dims)])
    payload = {"config": config.as_dict(), "cells": cells}
    _emit(config, payload, rows, ["m", "n", "hom_dim", "delta1_dim", "ce_dims"])
    return 0


def cmd_homology(config):
    cells = [(m, n) for m in range(0, config.max_m + 1) for n in range(0, m + 1)]
    pairs = _map_cells(cells)
    rows = [[m, n, pairs[(m, n)][0], pairs[(m, n)][1]] for (m, n) in cells]
    payload = {"config": config.as_dict(),
               "cells": [{"m": m, "n": n, "h0": h0, "h1": h1}
                         for (m, n), (h0, h1) in sorted(pairs.items())]}
    _emit(config, payload, rows, ["m", "n", "h0", "h1"])
    return 0


def cmd_verify(config):
    results = []
    ok = True
    for name in config.suites:
        passed, cases = SUITE_FNS[name](config.max_m, config.seed, config.trials)
        ok = ok and passed
        results.append({"name": name, "pass": passed, "cases": cases})
    cells = [(m, n) for m in range(0, config.max_m + 1) for n in range(0, m + 1)]
    pairs = _map_cells(cells)
    payload = {"config": config.as_dict(),
               "cells": [{"m": m, "n": n, "h0": h0, "h1": h1}
                         for (m, n), (h0, h1) in sorted(pairs.items())],
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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
