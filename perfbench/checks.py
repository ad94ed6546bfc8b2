"""Output checks.  Each returns None when the output is right, else a reason.

The dense check is independent of the program's eigensolver: it builds
the adjacency from the group table itself and takes ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

DENSE_TOL = 1e-8
PRINTED_REL_TOL = 1e-5        # `compare` prints 6 significant digits


def report_digest(triples) -> str:
    """Digest of the (claim, instance, outcome) list, in report order."""
    blob = json.dumps([list(t) for t in triples], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verify_triples(text: str) -> list[tuple[str, str, str]]:
    out = []
    for line in text.splitlines():
        if line.strip():
            r = json.loads(line)
            out.append((r["claim"], r["instance"], r["outcome"]))
    return out


def check_verify(rc, text: str, golden: dict | None) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    triples = verify_triples(text)
    failed = [t for t in triples if t[2] == "fail"]
    if failed:
        return f"{len(failed)} fail outcomes, first {failed[0]}"
    if golden is not None:
        count, digest = golden
        if len(triples) != count or report_digest(triples) != digest:
            return f"report list differs from the recorded one ({len(triples)} vs {count} reports)"
    return None


def check_pair(rc, text: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if "check prop-isosp-R/even-pair: pass" not in text.splitlines():
        return "even pair not certified"
    return None


def check_iterated(rc, text: str, steps: int) -> str | None:
    reports = [json.loads(line) for line in text.splitlines() if line.strip()]
    iterated = [r for r in reports if r["claim"] == "cor-iterated"]
    if rc != 0 or len(iterated) != steps:
        return f"expected {steps} cor-iterated reports, got {len(iterated)}"
    bad = [r for r in reports if r["outcome"] != "pass"]
    return f"report not passed: {bad[0]}" if bad else None


def spectrum_values(text: str) -> np.ndarray:
    """Expanded complex values of a `spectrum --format json` output."""
    entries = json.loads(text)["entries"]
    return np.array([complex(e["re"], e["im"]) for e in entries for _ in range(e["mult"])])


def check_size(rc, text: str, vertices: int, integral: bool | None = None,
               principal: int | None = None) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    vals = spectrum_values(text)
    if len(vals) != vertices:
        return f"{len(vals)} eigenvalues for {vertices} vertices"
    if integral is not None and json.loads(text)["class"]["integral"] != integral:
        return f"integral flag is not {integral}"
    if principal is not None and abs(vals.real.max() - principal) > DENSE_TOL:
        return f"largest eigenvalue {vals.real.max()} != out-degree {principal}"
    return None


def adjacency(op: np.ndarray, inv: np.ndarray, identity: int, members, tkind) -> np.ndarray:
    """Difference-rule Cayley graph, or its mirror graph for ``tkind`` e, S or Se."""
    def cay(conn):
        mask = np.zeros(len(inv), dtype=bool)
        mask[list(conn)] = True
        return mask[op[:, inv]].T.astype(float)     # [h, g] = 1 iff g h^-1 in conn

    B = cay(members)
    if tkind is None:
        return B
    C = cay({"e": [identity], "S": list(members), "Se": list(members) + [identity]}[tkind])
    return np.block([[B, C], [C, B]])


def _match(values, reference, rel_tol: float) -> bool:
    values = np.sort(np.asarray(values, dtype=complex).real)
    return (len(values) == len(reference)
            and bool(np.all(np.abs(values - reference) <= rel_tol * np.maximum(1, np.abs(reference)))))


_ENTRY = re.compile(r"\[([^\]]+)\]\^(\d+)")


def printed_values(spectrum_text: str) -> list[complex]:
    out = []
    for value, mult in _ENTRY.findall(spectrum_text):
        z = complex(value.replace("i", "j")) if "i" in value else complex(float(value))
        out.extend([z] * int(mult))
    return out


def check_dense(rc, text: str, references: list[np.ndarray]) -> str | None:
    """`spectrum --format json` (one reference) or `compare` (two)."""
    if rc != 0:
        return f"exit code {rc}"
    if len(references) == 1:
        if not _match(spectrum_values(text), references[0], DENSE_TOL):
            return "spectrum differs from eigvalsh beyond 1e-8"
        return None
    lines = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    for key, ref in zip(("first", "second"), references):
        if not _match(printed_values(lines.get(key, "")), ref, PRINTED_REL_TOL):
            return f"{key} spectrum differs from eigvalsh"
    a, b = references
    expected = len(a) == len(b) and bool(np.all(np.abs(a - b) <= DENSE_TOL))
    if lines.get("isospectral", "").strip() != str(expected):
        return f"isospectral verdict is not {expected}"
    return None


def check_op(check: dict, rc, text: str, golden: dict, reference) -> str | None:
    """Dispatch on ``check["kind"]``; ``reference(instance)`` gives eigvalsh values."""
    kind = check["kind"]
    try:
        if kind == "verify":
            recorded = golden.get(str(check["trials"]), {}).get(str(check["seed"]))
            return check_verify(rc, text, recorded)
        if kind == "pair":
            return check_pair(rc, text)
        if kind == "iterated":
            return check_iterated(rc, text, check["steps"])
        if kind == "size":
            return check_size(rc, text, check["vertices"], check.get("integral"),
                              check.get("principal"))
        if kind == "dense":
            return check_dense(rc, text, [reference(g) for g in check["graphs"]])
    except (ValueError, KeyError, TypeError) as exc:     # unparsable output
        return f"unreadable output: {exc!r}"
    raise ValueError(f"unknown check {kind!r}")
