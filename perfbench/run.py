"""spectra-forge benchmark.

    python3 perfbench/run.py --workload suite|rings|dense --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The load is a closed loop from one client: each pass runs
the workload's operations one after another in a fresh single-threaded
process (BLAS thread variables pinned to 1), and passes repeat until
``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end
metrics (medians over passes); ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the median traced
pass.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:        # before numpy loads, here and in every child
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pinning above)

import checks       # noqa: E402
import tracer       # noqa: E402
import workloads    # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_IMPORTS = 9
RUN_BUDGET_S = 165            # no pass may end after this many seconds of the run

END_TO_END_UNITS = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def cold_import_s(env: dict) -> float:
    """Fresh interpreter start until ``spectra_forge.cli`` is imported."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, spectra_forge.cli; print(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1]) - start


def run_pass(ops: list[dict], trace: bool, env: dict, timeout: float) -> dict | None:
    """One fresh worker process; None when it crashed or timed out."""
    try:
        out = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"ops": ops, "trace": trace}), env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("pass timed out", file=sys.stderr)
        return None
    if out.returncode != 0:
        print(out.stderr[-2000:], file=sys.stderr)
        return None
    return json.loads(out.stdout.splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "spectra_forge").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Checker:
    """Checks outputs, reusing the verdict for an output already seen."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.groups: dict = {}
        self.references: dict = {}
        self.seen: dict = {}

    def reference(self, inst: dict):
        key = json.dumps(inst, sort_keys=True)
        if key not in self.references:
            op, inv, e = workloads.group_tables(inst["group"], self.groups)
            A = checks.adjacency(op, inv, e, inst["set"], inst["tkind"])
            self.references[key] = np.linalg.eigvalsh(A)
        return self.references[key]

    def __call__(self, index: int, op: dict, rc, text: str) -> str | None:
        key = (index, rc, text)
        if key not in self.seen:
            self.seen[key] = checks.check_op(op["check"], rc, text, self.golden,
                                             self.reference)
        return self.seen[key]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    load = os.getloadavg()

    if not (SRC / "spectra_forge" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed)
    env = child_env()
    trace = bool(args.trace)

    setup = []
    if not trace:
        cold_import_s(env)                     # writes bytecode caches
        setup = [cold_import_s(env) for _ in range(COLD_IMPORTS)]

    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    last = 0.0
    while not plain or time.monotonic() < deadline:
        left = RUN_BUDGET_S - (time.monotonic() - began)
        if plain and last > left:
            break
        t0 = time.monotonic()
        plain.append(run_pass(ops, False, env, max(1.0, left / (2 if trace else 1))))
        if trace:
            traced.append(run_pass(ops, True, env, max(1.0, RUN_BUDGET_S - (time.monotonic() - began))))
        last = time.monotonic() - t0

    checker = Checker(workloads.load_golden())
    attempted = failed = 0
    reasons: list[str] = []
    for i, reply in enumerate(plain + traced):
        attempted += len(ops)
        if reply is None:
            failed += len(ops)
            reasons.append("worker failed")
            continue
        for index, (op, r) in enumerate(zip(ops, reply["ops"])):
            why = checker(index, op, r["rc"], r["text"])
            twin = plain[i - len(plain)] if i >= len(plain) else None
            if why is None and twin is not None and (
                    (twin["ops"][index]["rc"], twin["ops"][index]["text"]) != (r["rc"], r["text"])):
                why = "traced output differs from untraced output"
            if why is not None:
                failed += 1
                reasons.append(f"{op['name']}: {why}")

    good = [p for p in plain if p is not None]
    walls = [sum(r["seconds"] for r in p["ops"]) for p in good]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": good[0]["numpy"] if good else None, "git_sha": git_sha(),
        "src_sha256": src_digest(), "nproc": os.cpu_count(),
        "loadavg_start": list(load), "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "ops_per_pass": len(ops), "passes": len(plain),
        "slowest_op_samples": len(ops) * len(good), "cold_imports": len(setup),
        "op_seconds": [[r["seconds"] for r in p["ops"]] for p in good],
    }

    metrics: dict = {}
    if not trace and good:
        values = {
            "wall_s": statistics.median(walls),
            "slowest_op_s": statistics.median(max(r["seconds"] for r in p["ops"]) for p in good),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced_ok = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    if trace and traced_ok:
        by_wall = sorted(traced_ok, key=lambda pt: sum(r["seconds"] for r in pt[1]["ops"]))
        median_pass = by_wall[(len(by_wall) - 1) // 2][1]
        traced_wall = sum(r["seconds"] for r in median_pass["ops"])
        overhead = statistics.median(
            sum(r["seconds"] for r in t["ops"]) - sum(r["seconds"] for r in p["ops"])
            for p, t in traced_ok)
        values = tracer.flatten(median_pass["trace"]["layers"])
        values.update(traced_wall_s=traced_wall, untraced_s=median_pass["trace"]["untraced_s"],
                      trace_overhead_s=overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracer.metric_units().items()}
        print_trace(median_pass, ops, traced_wall)

    print_summary(args, ops, good, metrics, attempted, failed, reasons)
    print(json.dumps({"meta": meta}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def print_summary(args, ops, good, metrics, attempted, failed, reasons) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(good)}  ops/pass {len(ops)}")
    print("  pass walls " + " ".join(f"{sum(r['seconds'] for r in p['ops']):.3f}" for p in good))
    for i, op in enumerate(ops if good else []):
        times = [p["ops"][i]["seconds"] for p in good]
        print(f"  op {op['name'][:70]:<70} median {statistics.median(times):8.4f} s")
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:12.4f} {m['unit']}")
    print(f"  {'fail_frac':<14} {failed / max(1, attempted):12.4f} ratio ({failed}/{attempted})")
    for why in reasons[:10]:
        print(f"  FAILED {why}")


def print_trace(reply: dict, ops: list[dict], traced_wall: float) -> None:
    layers = reply["trace"]["layers"]
    print(f"traced wall {traced_wall:.4f} s, untraced {reply['trace']['untraced_s']:.4f} s")
    for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        if v["calls"]:
            print(f"  {name:<24} calls {v['calls']:>7}  self {v['self_s']:8.4f} s "
                  f"({100 * v['self_s'] / traced_wall:5.1f}%)")
    g, d = layers["algebra.groups"], layers["spectra.dense"]
    print("  shares: "
          f"values_per_entry {layers['spectra.compare']['values_per_entry']:.1f}  "
          f"groups le512_s {g['le512_s']:.3f} gt512_s {g['gt512_s']:.3f}  "
          f"distinct_per_build {g['distinct_per_build']:.3f}  "
          f"dense ops_computed {d['ops_computed']:.3e}  "
          f"cells {layers['graphs.build']['cells']:.3e}")
    for op, per in zip(ops, reply["trace"]["per_op"]):
        top = sorted(per.items(), key=lambda kv: -kv[1])[:3]
        print(f"  op {op['name'][:50]:<50} " +
              "  ".join(f"{name} {s:.3f}" for name, s in top if s > 0))


if __name__ == "__main__":
    sys.exit(main())
