"""Record the verify report digests that the `suite` workload checks against.

    python3 perfbench/record_golden.py

Runs `spectra-forge verify` for every seed in the workload's pools and
writes perfbench/golden.json: {trials: {seed: [report count, digest]}}.
Re-record only when a change to the reports is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks      # noqa: E402
import workloads   # noqa: E402
from spectra_forge import cli  # noqa: E402


def main() -> int:
    golden: dict = {}
    for trials, seeds in workloads.VERIFY_POOL.items():
        for seed in seeds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(["verify", "--trials", str(trials), "--seed", str(seed)])
            triples = checks.verify_triples(out.getvalue())
            if checks.check_verify(rc, out.getvalue(), None) is not None:
                print(f"verify --trials {trials} --seed {seed} failed", file=sys.stderr)
                return 1
            golden.setdefault(str(trials), {})[str(seed)] = [
                len(triples), checks.report_digest(triples)]
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
