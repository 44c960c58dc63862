"""The benchmark's workloads.

Each workload is a batch job run as a closed loop: one client in one
process makes the next call only after the previous one returns, with no
threads and no worker processes.  A workload has

* `setup()`: the work a fresh interpreter does before it is ready,
  namely importing lieprop and building the `hom_basis` / `delta1_basis`
  tables the job touches;
* `run(seed)`: the timed job, returning a JSON-able output;
* `check(output, reference)`: the failures found in that output against
  the frozen reference, as a list of one-line descriptions.  It runs
  after the timer stops.

One operation is one homology cell, one verification suite or one
`cross_check` case; `ops` is how many one job attempts.
"""

import contextlib
import io
import json

ORACLE_CASES = [(d, n, w) for d in (1, 2, 3) for n in (0, 1, 2) for w in range(1, 7)]
VERIFY_SUITES = ("catlie", "mudelta", "dg", "ce", "qsn", "oracle")


def build_tables(max_m, max_n):
    from lieprop.catlie import hom_basis
    from lieprop.mudelta import delta1_basis
    for m in range(max_m + 1):
        for n in range(min(m, max_n) + 1):
            hom_basis(m, n)
            delta1_basis(m, n)


def run_cli(argv):
    """`lieprop <argv> --format json` in-process: its exit status and parsed report."""
    from lieprop import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv) + ["--format", "json"])
    return {"exit": status, "report": json.loads(buf.getvalue())}


class Workload:
    """Set-up shared by the workloads: the tables named in `params["tables"]`."""

    def setup(self):
        build_tables(*self.params["tables"])


class HomologyM6(Workload):
    """`lieprop homology --max-m 6`: the headline run, dominated by tracked
    elimination in `Echelon.add` on cells (6, 3) and (6, 4)."""

    name = "homology-m6"
    params = {"argv": ["homology", "--max-m", "6"], "tables": [6, 6]}
    ops = 28

    def run(self, seed):
        return run_cli(self.params["argv"])

    def check(self, output, reference):
        from lieprop.catlie import hom_dim
        from lieprop.mudelta import delta1_dim
        if "error" in output or output["exit"] != 0:
            return ["homology run failed: %s" % output.get("error", output.get("exit"))] * self.ops
        got = {(c["m"], c["n"]): (c["h0"], c["h1"]) for c in output["report"]["cells"]}
        failures = []
        for m, n, h0, h1 in reference["homology"]:
            pair = got.get((m, n))
            if pair != (h0, h1):
                failures.append("cell (%d,%d): got %s, expected %s" % (m, n, pair, (h0, h1)))
            elif h0 - h1 != hom_dim(m, n) - delta1_dim(m, n):
                failures.append("cell (%d,%d): h0 - h1 != hom_dim - delta1_dim" % (m, n))
        return failures


class VerifyM5(Workload):
    """`lieprop verify --max-m 5 --seed <seed>`, all six suites: the
    per-element structure maps of catlie, mudelta and cecomplex."""

    name = "verify-m5"
    params = {"argv": ["verify", "--max-m", "5"], "tables": [5, 5]}
    ops = len(VERIFY_SUITES)

    def run(self, seed):
        return run_cli(self.params["argv"] + ["--seed", str(seed)])

    def check(self, output, reference):
        if "error" in output:
            return ["verify run raised: %s" % output["error"]] * self.ops
        passed = {s["name"]: s["pass"] for s in output["report"]["suites"]}
        failures = ["suite %s did not pass" % s for s in VERIFY_SUITES if passed.get(s) is not True]
        if output["exit"] != 0 and not failures:
            failures.append("exit status %s" % output["exit"])
        return failures


class OracleW6(Workload):
    """`schur_oracle.cross_check(d, n, w)` for d <= 3, n <= 2, w <= 6, through
    the public function (no CLI flag reaches w > 4): `schur_dim` and
    `SwModule.act`, with exactla as a reduce / solve oracle."""

    name = "oracle-w6"
    params = {"cases": "d in 1..3, n in 0..2, w in 1..6", "tables": [6, 2]}
    ops = len(ORACLE_CASES)

    def run(self, seed):
        from lieprop import schur_oracle
        out = []
        for d, n, w in ORACLE_CASES:
            try:
                out.append(schur_oracle.cross_check(d, n, w))
            except Exception as exc:  # one failing case must not hide the others
                out.append("raised %r" % exc)
        return out

    def check(self, output, reference):
        from lieprop import schur_oracle
        if "error" in output:
            return ["oracle run raised: %s" % output["error"]] * self.ops
        direct = {(d, n, w): (h0, h1) for d, n, w, h0, h1 in reference["oracle_direct"]}
        failures = []
        for case, agreed in zip(ORACLE_CASES, output):
            if agreed is not True:
                failures.append("cross_check%s: %s" % (case, agreed))
                continue
            try:
                got = schur_oracle.weighted_complex_homology(*case)
            except Exception as exc:
                failures.append("weighted_complex_homology%s raised %r" % (case, exc))
                continue
            if tuple(got) != direct[case]:
                failures.append("direct (H0, H1)%s: got %s, expected %s"
                                % (case, tuple(got), direct[case]))
        return failures


WORKLOADS = {w.name: w for w in (HomologyM6(), VerifyM5(), OracleW6())}
