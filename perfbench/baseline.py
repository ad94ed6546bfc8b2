"""The ROADMAP Baseline cases, timed untraced and traced once each.

    python3 perfbench/baseline.py

Prints each case's wall time and the self time of the layers that the
Baseline names; NOTES.md puts one run next to the Baseline numbers.
The n = 7 step of the iterated pipeline is the n = 7 run minus the
n = 6 run.
"""

from __future__ import annotations

import sys

import run         # pins the BLAS threads before numpy loads
import workloads

COLUMNS = ("algebra.groups", "algebra.characters", "spectra.dense", "spectra.compare",
           "spectra.merge", "cli.io")


def cases() -> list[dict]:
    op, inv, e = workloads.group_tables("sym:5", {})
    involutions = ",".join(str(g) for g in range(len(inv)) if inv[g] == g and g != e)
    cli = [
        ["verify", "--seed", "7"],
        ["verify", "--seed", "7", "--trials", "200"],
        ["pair", "--ring", "zpk:2^2*gf:3"],
        ["spectrum", "--group", "cyclic:512", "--set", "1,511"],
        ["spectrum", "--group", "cyclic:513", "--set", "1,512"],
        ["spectrum", "--group", "sym:5", "--set", involutions],
        ["spectrum", "--ring", "zpk:2^7*gf:3", "--set", "units", "--tkind", "S"],
    ]
    ops = [{"name": " ".join(argv)[:48], "argv": argv} for argv in cli]
    ops += [{"name": f"iterated_pairs(zpk:2^2*gf:3, {n})", "lib": "iterated_pairs",
             "args": ["zpk:2^2*gf:3", n]} for n in (6, 7)]
    return ops


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ops = cases()
    env = run.child_env()
    plain = run.run_pass(ops, False, env, run.RUN_BUDGET_S)
    traced = run.run_pass(ops, True, env, run.RUN_BUDGET_S)
    if plain is None or traced is None:
        return 1
    print(f"{'case':<48} {'wall_s':>8} {'traced':>8} " + " ".join(f"{c:>18}" for c in COLUMNS))
    rows = []
    for op, p, t, per in zip(ops, plain["ops"], traced["ops"], traced["trace"]["per_op"]):
        rows.append([p["seconds"], t["seconds"]] + [per[c] for c in COLUMNS])
        print(f"{op['name']:<48} " + " ".join(f"{v:8.3f}" for v in rows[-1][:2]) + " " +
              " ".join(f"{v:18.3f}" for v in rows[-1][2:]))
    step = [b - a for a, b in zip(rows[-2], rows[-1])]
    print(f"{'iterated n = 7 step (7 minus 6)':<48} " + " ".join(f"{v:8.3f}" for v in step[:2]) +
          " " + " ".join(f"{v:18.3f}" for v in step[2:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
