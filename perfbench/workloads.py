"""Workload generation: the seed draws the inputs, the program gets only them.

An operation is a dict with a ``name``, either ``argv`` (one
``spectra-forge`` command) or ``lib`` plus ``args`` (one library call),
and a ``check`` that says how the benchmark verifies its output.

The seed varies the instances but keeps the amount of work level, so
that run-to-run spread measures the program and not the draw:

* ``suite`` draws verify seeds from pools of seeds whose predicted verify
  time lies near the median over seeds (NOTES.md says how);
* ``rings`` draws among rings of equal order and similar cost, and a
  random connection set of fixed size on the cyclic group of order 512;
* ``dense`` relabels fixed connection sets by a seeded inner automorphism,
  which gives a different but isomorphic graph with the same spectrum.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("suite", "rings", "dense")

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# verify seeds of near-median cost (NOTES.md says how they were picked);
# golden.json records the (claim, instance, outcome) digest of each, so
# every suite run is compared against a recorded list
VERIFY_POOL = {
    200: (3, 7, 15, 30, 37, 38, 41, 49, 50, 51, 89, 92),
    20: (5, 34, 77, 79, 80, 81, 83, 92, 98, 111, 118, 124),
}

# rings of order 360 with an even local factor of size 2m and an odd factor
PAIR_RINGS = (
    "zpk:2^3*gf:9*zpk:5^1", "gf:9*zpk:2^3*zpk:5^1", "zpk:5^1*gf:9*zpk:2^3",
    "quot:2:3*gf:9*zpk:5^1", "gf:9*quot:2:3*zpk:5^1", "zpk:5^1*quot:2:3*gf:9",
)
# rings of order 384 for the mirror graph with T = S = units (768 vertices)
UNIT_RINGS = (
    "zpk:2^7*gf:3", "gf:3*zpk:2^7", "quot:2:4*zpk:2^3*gf:3", "gf:3*zpk:2^3*quot:2:4",
)
CYCLIC_512_SET_SIZE = 24
ITERATED_RINGS = ("zpk:2^2*gf:3", "gf:3*zpk:2^2")
ITERATED_STEPS = 7

# dense instances: (group, base set size, mirror T kind or None)
DENSE_SPECTRA = (
    ("sym:5", 8, None),
    ("dihedral:30", 6, "S"),
    ("dicyclic:15", 6, "e"),
    ("dicyclic:30", 6, "S"),
)
DENSE_COMPARE_SELF = ("sym:5", 12, None)           # compared with a relabelling
DENSE_COMPARE_PAIR = (("dicyclic:12", 6, "Se"), ("dihedral:24", 6, "Se"))


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def generate(workload: str, seed: int) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite":
        return _suite(rng)
    if workload == "rings":
        return _rings(rng)
    if workload == "dense":
        return _dense(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _suite(rng: random.Random) -> list[dict]:
    ops = []
    for trials in (200, 20):
        seed = rng.choice(VERIFY_POOL[trials])
        ops.append({
            "name": f"verify --trials {trials} --seed {seed}",
            "argv": ["verify", "--trials", str(trials), "--seed", str(seed)],
            "check": {"kind": "verify", "trials": trials, "seed": seed},
        })
    return ops


def _rings(rng: random.Random) -> list[dict]:
    pair_ring = rng.choice(PAIR_RINGS)
    unit_ring = rng.choice(UNIT_RINGS)
    conn = sorted(rng.sample(range(1, 512), CYCLIC_512_SET_SIZE))
    base = rng.choice(ITERATED_RINGS)
    return [
        {"name": f"pair --ring {pair_ring}",
         "argv": ["pair", "--ring", pair_ring],
         "check": {"kind": "pair"}},
        {"name": f"spectrum --ring {unit_ring} --set units --tkind S",
         "argv": ["spectrum", "--ring", unit_ring, "--set", "units", "--tkind", "S",
                  "--format", "json"],
         "check": {"kind": "size", "vertices": 768, "integral": True}},
        {"name": "spectrum --group cyclic:512",
         "argv": ["spectrum", "--group", "cyclic:512", "--set", _ints(conn),
                  "--format", "json"],
         "check": {"kind": "size", "vertices": 512, "principal": len(conn)}},
        {"name": f"iterated_pairs({base}, {ITERATED_STEPS})",
         "lib": "iterated_pairs", "args": [base, ITERATED_STEPS],
         "check": {"kind": "iterated", "steps": ITERATED_STEPS}},
    ]


def _ints(xs) -> str:
    return ",".join(str(x) for x in xs)


def group_tables(desc: str, cache: dict):
    if desc not in cache:
        from spectra_forge import algebra

        G = algebra.make_group(desc)
        cache[desc] = (G.op_table, G.inv_table, G.identity)
    return cache[desc]


def base_set(desc: str, size: int, cache: dict) -> list[int]:
    """A fixed inverse-closed set of about ``size`` non-identity elements."""
    op, inv, e = group_tables(desc, cache)
    menu = random.Random(f"menu:{desc}:{size}")
    chosen: set[int] = set()
    while len(chosen) < size:
        g = menu.randrange(len(inv))
        if g != e:
            chosen |= {g, int(inv[g])}
    return sorted(chosen)


def conjugate(desc: str, members, g: int, cache: dict) -> list[int]:
    op, inv, _ = group_tables(desc, cache)
    return sorted({int(op[op[g, s], inv[g]]) for s in members})


def _instance(rng, desc, size, tkind, cache) -> dict:
    op, _, _ = group_tables(desc, cache)
    members = conjugate(desc, base_set(desc, size, cache), rng.randrange(len(op)), cache)
    return {"group": desc, "set": members, "tkind": tkind}


def _selectors(inst: dict, suffix: str = "") -> list[str]:
    out = [f"--group{suffix}", inst["group"], f"--set{suffix}", _ints(inst["set"])]
    if inst["tkind"]:
        out += [f"--tkind{suffix}", inst["tkind"]]
    return out


def _label(inst: dict) -> str:
    tk = f" --tkind {inst['tkind']}" if inst["tkind"] else ""
    return f"{inst['group']} |S|={len(inst['set'])}{tk}"


def _dense(rng: random.Random) -> list[dict]:
    cache: dict = {}
    ops = []
    for desc, size, tkind in DENSE_SPECTRA:
        inst = _instance(rng, desc, size, tkind, cache)
        ops.append({
            "name": f"spectrum {_label(inst)}",
            "argv": ["spectrum", *_selectors(inst), "--format", "json"],
            "check": {"kind": "dense", "graphs": [inst]},
        })
    desc, size, tkind = DENSE_COMPARE_SELF
    first = _instance(rng, desc, size, tkind, cache)
    second = _instance(rng, desc, size, tkind, cache)
    pair = [_instance(rng, *spec, cache) for spec in DENSE_COMPARE_PAIR]
    for a, b in ((first, second), pair):
        ops.append({
            "name": f"compare {_label(a)} / {_label(b)}",
            "argv": ["compare", *_selectors(a), *_selectors(b, "2")],
            "check": {"kind": "dense", "graphs": [a, b]},
        })
    return ops
