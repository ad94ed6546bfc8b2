"""Tests of the benchmark's own code.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks      # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

GROUPS, DENSE, COMPARE = (list(tracer.LAYERS).index(name)
                          for name in ("algebra.groups", "spectra.dense", "spectra.compare"))


def test_self_times_subtract_direct_children_only():
    # A [0,10] contains B [1,4] (which contains C [2,3]) and D [5,9]
    spans = [(0, 0.0, 10.0, -1, None), (0, 1.0, 4.0, 0, None),
             (0, 2.0, 3.0, 1, None), (0, 5.0, 9.0, 0, None)]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_of_a_slice_treat_outside_parents_as_roots():
    spans = [(0, 0.0, 10.0, -1, None), (0, 1.0, 4.0, 0, None), (0, 2.0, 3.0, 1, None)]
    assert tracer.self_times(spans[1:], offset=1) == pytest.approx([2.0, 1.0])


def test_aggregate_self_times_add_up_to_top_level_time():
    layers = list(tracer.LAYERS)
    spans = [(DENSE, 0.0, 8.0, -1, 100), (COMPARE, 1.0, 3.0, 0, (20, 4)),
             (GROUPS, 3.5, 4.5, 0, (600, "Z600")), (GROUPS, 9.0, 9.5, -1, (6, "Z6")),
             (GROUPS, 9.1, 9.2, 3, (6, "Z6"))]
    out = tracer.aggregate(layers, spans)
    total = sum(v["self_s"] for v in out["layers"].values())
    assert out["top_level_s"] == pytest.approx(8.5)
    assert total == pytest.approx(out["top_level_s"])
    g = out["layers"]["algebra.groups"]
    assert g["calls"] == 3
    assert g["gt512_s"] == pytest.approx(1.0)
    assert g["le512_s"] == pytest.approx(0.5)
    assert g["distinct_per_build"] == pytest.approx(1.0)   # 2 labels, 2 outermost builds
    d = out["layers"]["spectra.dense"]
    assert (d["vertices"], d["ops_computed"]) == (100, 100 ** 3)
    assert d["self_s"] == pytest.approx(5.0)
    assert out["layers"]["spectra.compare"]["values_per_entry"] == pytest.approx(5.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_and_seed_dependent(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    drawn = {json.dumps(workloads.generate(workload, s)) for s in range(1, 6)}
    assert len(drawn) > 1


def test_dense_instances_are_undirected_and_relabelled():
    from spectra_forge import algebra

    ops = workloads.generate("dense", 1)
    others = workloads.generate("dense", 2)
    for op, other in zip(ops, others):
        for inst, inst2 in zip(op["check"]["graphs"], other["check"]["graphs"]):
            G = algebra.make_group(inst["group"])
            A = checks.adjacency(G.op_table, G.inv_table, G.identity, inst["set"], inst["tkind"])
            B = checks.adjacency(G.op_table, G.inv_table, G.identity, inst2["set"], inst2["tkind"])
            assert np.array_equal(A, A.T)
            assert np.allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(B))


def test_suite_seeds_are_recorded():
    golden = workloads.load_golden()
    for trials, seeds in workloads.VERIFY_POOL.items():
        assert set(map(str, seeds)) <= set(golden[str(trials)])


def _spectrum_json(values) -> str:
    entries = [{"re": float(v), "im": 0.0, "mult": 1} for v in values]
    return json.dumps({"entries": entries, "class": {"integral": False}})


def test_dense_check_rejects_a_corrupted_spectrum():
    ref = np.array([-2.0, 0.0, 0.0, 2.0])
    assert checks.check_dense(0, _spectrum_json(ref[::-1]), [ref]) is None
    bad = ref.copy()
    bad[1] += 1e-6
    assert checks.check_dense(0, _spectrum_json(bad), [ref]) is not None
    assert checks.check_dense(3, _spectrum_json(ref), [ref]) is not None


def test_compare_check_reads_printed_spectra_and_verdict():
    ref = np.array([-2.0, 0.0, 0.0, 2.0])
    text = "first:  {[2]^1, [0]^2, [-2]^1}\nsecond: {[2]^1, [0]^2, [-2]^1}\nisospectral: @\n"
    assert checks.check_dense(0, text.replace("@", "True"), [ref, ref]) is None
    assert checks.check_dense(0, text.replace("@", "False"), [ref, ref]) is not None
    off = text.replace("second: {[2]^1", "second: {[2.01]^1").replace("@", "True")
    assert checks.check_dense(0, off, [ref, ref]) is not None


def _verify_text(outcomes) -> str:
    return "".join(json.dumps({"claim": f"c{i}", "instance": "(G=Z4)", "outcome": o}) + "\n"
                   for i, o in enumerate(outcomes))


def test_verify_check_rejects_fail_reports_and_changed_lists():
    good = _verify_text(["pass", "xfail", "skip"])
    recorded = (3, checks.report_digest(checks.verify_triples(good)))
    assert checks.check_verify(0, good, recorded) is None
    assert checks.check_verify(0, _verify_text(["pass", "fail", "skip"]), None) is not None
    assert checks.check_verify(0, _verify_text(["pass", "xfail", "pass"]), recorded) is not None
    assert checks.check_verify(1, good, None) is not None


def test_verify_digest_ignores_added_report_fields():
    base = _verify_text(["pass"])
    extended = json.dumps({"claim": "c0", "instance": "(G=Z4)", "outcome": "pass",
                           "route": "character", "elapsed_ms": 1.5}) + "\n"
    assert checks.verify_triples(base) == checks.verify_triples(extended)


def test_iterated_and_pair_checks():
    line = lambda claim, outcome: json.dumps({"claim": claim, "instance": "x", "outcome": outcome})
    ok = "\n".join([line("prop-isosp-R/even-pair", "pass")] + [line("cor-iterated", "pass")] * 2)
    assert checks.check_iterated(0, ok, 2) is None
    assert checks.check_iterated(0, ok.replace('pass"}', 'fail"}', 1), 2) is not None
    assert checks.check_iterated(0, ok, 3) is not None
    assert checks.check_pair(0, "check prop-isosp-R/even-pair: pass\n") is None
    assert checks.check_pair(1, "check prop-isosp-R/even-pair: pass\n") is not None
    assert checks.check_pair(0, "check prop-isosp-R/even-pair: fail\n") is not None


def _worker(ops, trace: bool) -> dict:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, str(HERE / "worker.py")],
                         input=json.dumps({"ops": ops, "trace": trace}), env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_traced_worker_sees_inner_calls_and_keeps_outputs():
    ops = [{"name": "pair", "argv": ["pair", "--ring", "zpk:2^2*gf:3"], "check": {"kind": "pair"}},
           {"name": "dense", "argv": ["spectrum", "--group", "sym:3", "--set", "1,2",
                                      "--format", "json"], "check": {}}]
    plain, traced = _worker(ops, False), _worker(ops, True)
    assert [r["text"] for r in plain["ops"]] == [r["text"] for r in traced["ops"]]
    layers = traced["trace"]["layers"]
    # the CLI reaches group_from_table through finring's own binding of it
    assert layers["algebra.groups"]["calls"] > 0
    assert "finring.additive_group" in traced["trace"]["wrapped"]["finring.rings"]
    assert any(w.startswith("theorems.check_") for w in traced["trace"]["wrapped"]["theorems.report"])
    assert layers["spectra.dense"]["calls"] == 2           # route and the Jacobi solver
    assert layers["spectra.dense"]["vertices"] == 6
    assert layers["cli.io"]["calls"] == 2
    wall = sum(r["seconds"] for r in traced["ops"])
    total = sum(v["self_s"] for v in layers.values()) + traced["trace"]["untraced_s"]
    assert total == pytest.approx(wall, rel=1e-9)


MISSING_NAMES = """
import tracer
tracer.LAYERS["spectra.dense"] = ("spectra", ("spectrum_dense_symmetric", "no_such_solver"))
tracer.LAYERS["cli.io"] = ("no_such_module", ("main",))
t = tracer.Tracer()
t.install()
assert t.wrapped["cli.io"] == [], t.wrapped
assert t.wrapped["spectra.dense"] == ["spectra.spectrum_dense_symmetric"], t.wrapped
assert t.aggregate()["layers"]["cli.io"] == {"calls": 0, "self_s": 0.0}
"""


def test_missing_names_record_zeros():
    env = {"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-c", MISSING_NAMES], env=env, timeout=60, check=True)
