"""Every workload's metrics in one table.

    python3 perfbench/summary.py [--seed N] [--seconds S]

Runs perfbench/run.py for each workload, untraced and traced, and prints
the end-to-end metrics by name and unit, fail_frac, the property shares
each workload has, and each layer's share of the traced wall.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer      # noqa: E402
import workloads   # noqa: E402

END_TO_END = (("wall_s", "s"), ("slowest_op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SHARES = ("spectra.compare.values_per_entry", "algebra.groups.le512_s",
          "algebra.groups.gt512_s", "algebra.groups.distinct_per_build",
          "spectra.dense.ops_computed", "graphs.build.cells")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    result["meta"] = json.loads(out.stdout.splitlines()[-2])["meta"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    names = workloads.WORKLOADS
    plain = {w: run(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in names}

    def row(label, unit, values, fmt="{:>14.4f}"):
        print(f"{label:<36} {unit:<6}" + "".join(fmt.format(v) for v in values))

    print(f"{'metric':<36} {'unit':<6}" + "".join(f"{w:>14}" for w in names))
    for name, unit in END_TO_END:
        row(name, unit, [plain[w]["metrics"][name]["value"] for w in names])
    row("fail_frac", "ratio", [(plain[w]["failed"] + traced[w]["failed"]) /
                               (plain[w]["attempted"] + traced[w]["attempted"]) for w in names])
    row("passes x ops/pass", "count", [f"{plain[w]['meta']['passes']} x "
                                       f"{plain[w]['meta']['ops_per_pass']}" for w in names],
        "{:>14}")
    print("property shares (traced run)")
    for name in SHARES:
        row(name, tracer.metric_units()[name], [traced[w]["metrics"][name]["value"] for w in names],
            "{:>14.4g}")
    print("self time as a share of the traced wall")
    walls = [traced[w]["metrics"]["traced_wall_s"]["value"] for w in names]
    for layer in list(tracer.LAYERS) + ["untraced"]:
        key = f"{layer}.self_s" if layer != "untraced" else "untraced_s"
        row(layer, "%", [100 * traced[w]["metrics"][key]["value"] / wall
                         for w, wall in zip(names, walls)], "{:>14.2f}")
    row("traced_wall_s", "s", walls)
    row("trace_overhead_s", "s", [traced[w]["metrics"]["trace_overhead_s"]["value"] for w in names])
    meta = plain[names[0]]["meta"]
    print(f"python {meta['python']}  numpy {meta['numpy']}  git {meta['git_sha']}  "
          f"src {meta['src_sha256']}  nproc {meta['nproc']}  seed {args.seed}")
    return 0 if all(r["correct"] for r in (*plain.values(), *traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
