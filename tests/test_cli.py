"""End-to-end command line coverage."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spectra_forge import algebra, cli, graphs, spectra, theorems
from spectra_forge.graphs import Graph

from oracles import eigvalsh_spectrum, same_entries


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_table(capsys):
    code, out = run(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3",
                    "--kind", "diff")
    assert code == 0
    assert "[2]^1, [0]^2, [-2]^1" in out
    assert "parity: even" in out


def test_spectrum_json_and_csv(capsys):
    code, out = run(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["class"]["parity"] == "even"
    code, out = run(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3",
                    "--format", "csv")
    assert out.splitlines()[0] == "re,im,multiplicity"


def test_spectrum_mirror_graph(capsys):
    code, out = run(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3",
                    "--tkind", "Se")
    assert code == 0
    assert "[5]^1, [1]^2, [-1]^4, [-3]^1" in out
    assert "parity: odd" in out


# spectra on the trivial group, the same for both kinds: X(Z1, S) with S
# empty or {e}, and MX(Z1; S, T) over Z1 x Z2 for each T
TRIVIAL_SPECTRA = [
    ("", None, "{[0]^1}"), ("0", None, "{[1]^1}"),
    ("", "e", "{[1]^1, [-1]^1}"), ("0", "e", "{[2]^1, [0]^1}"),
    ("", "S", "{[0]^2}"), ("0", "S", "{[2]^1, [0]^1}"),
    ("", "Se", "{[1]^1, [-1]^1}"), ("0", "Se", "{[2]^1, [0]^1}"),
]


@pytest.mark.parametrize("kind", ["diff", "sum"])
@pytest.mark.parametrize("members, tkind, want", TRIVIAL_SPECTRA)
def test_trivial_group_spectra(capsys, members, tkind, want, kind):
    code, out = run(capsys, "spectrum", "--group", "cyclic:1", "--set", members,
                    "--kind", kind, *(("--tkind", tkind) if tkind else ()))
    assert code == 0 and out.splitlines()[0] == f"spectrum: {want}"
    S = algebra.subset(algebra.cyclic(1), [int(members)] if members else [])
    if tkind:       # the character route of the mirror graph runs over G x Z2
        S = theorems.mdcg_connection_subset(S, theorems.t_subset(S, cli.TKIND_ALIASES[tkind]))
    sums = algebra.character_sums_over(S)
    assert sums.dtype == np.complex128 and sums.shape == (S.parent.order,)


def test_build_round_trip(capsys, tmp_path):
    code, out = run(capsys, "build", "--group", "cyclic:4", "--set", "1,3",
                    "--tkind", "e", "--format", "json")
    assert code == 0
    data = json.loads(out)
    adj = np.array([[int(c) for c in row] for row in data["adjacency"]], dtype=np.uint8)
    g = Graph(adj)
    assert g.n == 8 and g.to_json(data["labels"]) == out.strip()


# sha256 of the build output, recorded before the graph kernels were
# rewritten as boolean gathers (json and dot) and before vertex names moved
# from the graphs to the command line (all); neither may move a single byte
BUILD_SHA256 = [
    (("cyclic:4", "--set", "1,3", "--tkind", "e"), "json",
     "526a61fb7471abc6769826009ace52a38f2a966c51b3e17af58f11992c2a1c70"),
    (("cyclic:4", "--set", "1,3", "--tkind", "e"), "dot",
     "4d9828c5b43808d5f83fe33c7e2a9394682a22df99a7adf34b34c12b7043ac56"),
    (("dihedral:4", "--set", "1,3", "--tkind", "Se", "--kind", "sum"), "json",
     "b5319e180c760332a01f06bd2c1cd45846f47fe54f4e2a62447fd178fdd4a4ef"),
    (("dihedral:4", "--set", "1,3", "--tkind", "Se", "--kind", "sum"), "dot",
     "05ae7c887a9029293e2606c570b271cca86acfb731177779010fc078e32d6cbc"),
    (("cyclic:4", "--set", "1,3", "--tkind", "e"), "table",
     "f64a500fc341b7fcf6d3765424094fad401cdc26bcb6aff3e366b1e671c4afa9"),
    (("cyclic:4", "--set", "1,3"), "json",
     "bd72844994e7de281e7030fe5059a2c1ee4574d8e37ff4f031283c16773276d7"),
    (("cyclic:4", "--set", "1,3"), "dot",
     "901b2169627a0a4225f0ccfb172545b2e46e1cac0199a460ebd0b2115bbe0b59"),
    (("cyclic:4", "--set", "1,3"), "table",
     "5f7286ce9b4188d9da7a909343aa165645be0b355aaac8dbecfca01ade538cff"),
]


@pytest.mark.parametrize("argv, fmt, digest", BUILD_SHA256)
def test_build_output_pinned(capsys, argv, fmt, digest):
    code, out = run(capsys, "build", "--group", *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit code and sha256 of the full stdout of spectrum and compare runs over
# the character, dense, mirror and no-route paths, recorded before the
# subset-taking functions dropped their separate group argument
SPECTRUM_SHA256 = [
    (("spectrum", "--group", "cyclic:4", "--set", "1,3"), 0,
     "9c84380ab0f2ce198ffb1d0bc48309ed49bd457a3e685f96152c7d780ba2a9db"),
    (("spectrum", "--ring", "zpk:2^7*gf:3", "--set", "units", "--tkind", "S",
      "--format", "json"), 0,
     "17b25ab4cd0263a66a56c9fe709951b4e8d5bcfccd2908db0616bed545003b14"),
    (("spectrum", "--group", "cyclic:4", "--set", "1,3", "--kind", "sum", "--tkind", "e",
      "--format", "json"), 0,
     "3be555a498438bb81900ef66d13fb25734cd7ba66f73c57fe8767700f3161a93"),
    # the text output: the JSON prints every bit of the values, in which the
    # irreducible blocks and the dense route differ (test_block_spectrum_json_matches_eigvalsh)
    (("spectrum", "--group", "sym:5", "--set", "1,2,6,24,119"), 0,
     "3a2cfcaa5b1ad0689d578b41c90a860f02f66fbf0037e67ffbffc9d8f4b1d825"),
    (("spectrum", "--group", "dicyclic:15", "--set", "1,3,5", "--tkind", "e"), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("compare", "--group", "cyclic:16", "--set", "1,2,4,5,9,10,12,13",
      "--group2", "prod:(cyclic:4,cyclic:4)", "--set2", "1,2,4,6,9,10,13,15"), 0,
     "a1315aed9451d1515dfb1edd51228c7940dc7f8be852e3ee85492bd1a9004158"),
]


@pytest.mark.parametrize("argv, rc, digest", SPECTRUM_SHA256)
def test_spectrum_output_pinned(capsys, argv, rc, digest):
    code, out = run(capsys, *argv)
    assert code == rc
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_block_spectrum_json_matches_eigvalsh(capsys):
    # the JSON values of the block route lie within 1e-9 of eigvalsh on the
    # built graph, entry by entry with equal multiplicities; the class is
    # the one the dense route printed
    members = [1, 2, 6, 24, 119]
    code, out = run(capsys, "spectrum", "--group", "sym:5", "--set", ",".join(map(str, members)),
                    "--format", "json")
    data = json.loads(out)
    got = spectra.Spectrum.from_pairs([(complex(e["re"], e["im"]), e["mult"]) for e in data["entries"]])
    want = eigvalsh_spectrum(graphs.cayley(algebra.subset(algebra.symmetric(5), members), "difference"))
    assert code == 0 and len(got.entries) == len(data["entries"]) == 25
    assert same_entries(got, want, 1e-9)
    assert data["class"] == {"integral": False, "parity": "non-integral", "symmetric": False,
                             "almost_symmetric": False}


def test_build_dot(capsys):
    code, out = run(capsys, "build", "--group", "cyclic:4", "--set", "1,3",
                    "--format", "dot")
    assert code == 0 and out.startswith("graph")


def test_ring_selectors(capsys):
    code, out = run(capsys, "spectrum", "--ring", "zpk:2^2*gf:3", "--set", "units")
    assert code == 0
    assert "[4]^1, [2]^2, [0]^6, [-2]^2, [-4]^1" in out
    code, out = run(capsys, "spectrum", "--ring", "gf:9", "--set", "pk:2")
    assert code == 0
    assert "[4]^1, [1]^4, [-2]^4" in out
    code, out = run(capsys, "spectrum", "--group", "cyclic:8", "--set", "gcd:1,4")
    assert code == 0


def test_compare(capsys):
    code, out = run(
        capsys, "compare",
        "--group", "cyclic:16", "--set", "1,2,4,5,9,10,12,13", "--kind", "diff",
        "--group2", "prod:(cyclic:4,cyclic:4)",
        "--set2", "1,2,4,6,9,10,13,15", "--kind2", "diff",
    )
    assert code == 0 and "isospectral: True" in out
    code, out = run(
        capsys, "compare",
        "--group", "cyclic:16", "--set", "1,2,4,5,9,10,12,13", "--kind", "diff",
        "--kind2", "sum",
    )
    assert code == 0 and "isospectral: False" in out
    # an empty --set2 is the empty set, not a fall-back to --set
    code, out = run(capsys, "compare", "--group", "cyclic:4", "--set", "1,3", "--set2", "")
    assert code == 0
    assert out.splitlines() == [
        "first:  {[2]^1, [0]^2, [-2]^1}", "second: {[0]^4}", "isospectral: False"]
    # a --ring2 alone replaces the first side's group: C4 against the unitary graph of F4
    code, out = run(capsys, "compare", "--group", "cyclic:4", "--set", "1,3",
                    "--ring2", "gf:4", "--set2", "1,2")
    assert code == 0
    assert out.splitlines() == [
        "first:  {[2]^1, [0]^2, [-2]^1}", "second: {[2]^1, [0]^2, [-2]^1}", "isospectral: True"]


def test_verify_json_lines(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--seed", "7", "--trials", "4")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert rows and all(r["outcome"] in ("pass", "xfail", "skip") for r in rows)
    assert all(r["seed"] == 7 for r in rows)


def test_verify_seed_default_ignores_environment(monkeypatch):
    monkeypatch.setenv("SPECTRA_FORGE_SEED", "11")
    assert cli.build_parser().parse_args(["verify"]).seed == 7


def test_verify_deterministic(capsys):
    _, out1 = run(capsys, "verify", "--seed", "3", "--trials", "4")
    _, out2 = run(capsys, "verify", "--seed", "3", "--trials", "4")
    assert out1 == out2


def test_verify_suite_filter(capsys):
    code, out = run(capsys, "verify", "--suite", "prop-cayley-structure",
                    "--seed", "5", "--trials", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    assert rows and all(r["claim"].startswith("prop-cayley-structure") for r in rows)
    assert all(line.endswith(',"seed":5}') for line in out.splitlines())   # the run's seed, last


def test_pair_command(capsys):
    code, out = run(capsys, "pair", "--ring", "zpk:2^2*gf:3")
    assert code == 0
    assert "even pair spectrum (shared): {[8]^1, [4]^2, [0]^18, [-4]^2, [-8]^1}" in out
    assert "[9]^1, [5]^2, [1]^6, [-3]^2, [-7]^1" in out.replace(", [-1]^12", "")
    assert "xfail" in out    # the documented odd-pair erratum is surfaced


# sha256 of the full pair stdout; the last two were recorded before the
# integrality criteria shared one co-generation closure
PAIR_SHA256 = [
    ("zpk:2^2*gf:3", "a7dc5cbfce897be8cd16297b0cc5dc66ab9fb583f20f5d934ef4e3e14d17331a"),
    ("zpk:2^3*gf:9*zpk:5^1", "817df99958f6c4f0b5cb4eacef8d4bbbdea1ffe2be36eba132a61dfeb295659e"),
    ("gf:2*zpk:3^2", "05f68ae395b5e2f8b8045240fd47f583a875790ee6bc01f01ebaa3b7ef9c1d09"),
]


def test_pair_output_pinned(capsys):
    for ring, digest in PAIR_SHA256:
        code, out = run(capsys, "pair", "--ring", ring)
        assert code == 0, ring
        assert hashlib.sha256(out.encode()).hexdigest() == digest, ring


# exit code and sha256 of the full stdout of runs that reach the sum-kind
# erratum domain, the even/odd pair and the structure report, recorded
# before the domain was read off S and the report found components and
# colouring in one traversal
ERRATUM_AND_REPORT_SHA256 = [
    (("verify", "--suite", "prop-spec-bicayleys,thm-isosp-XX+,cor-integral,cor-symmetric",
      "--seed", "30", "--trials", "200"), 0,
     "b7216642e07203d19994bb505dc7ec94de52cf9fd4e6894c62299ad49429e164"),
    (("pair", "--ring", "zpk:2^2*gf:5"), 0,
     "6a1065b5dc4ecc89e9acbb15d169a4a27952559a79212c0056c96666cde7c657"),
    (("report", "--group", "cyclic:4", "--set", "1,3"), 0,          # connected, bipartite
     "6b2ae130ca8a281fcc7cc3c5d35ba835c9ada68a88d3e152e3a02c5c6486d2a9"),
    (("report", "--group", "cyclic:8", "--set", "2,6"), 0,          # two 4-cycles
     "701c9aae4b15e2cd2e46ce9a82c68f9e1536cb1f83d501bc249cbd36c866195a"),
    (("report", "--group", "cyclic:6", "--set", "2,4"), 0,          # two triangles
     "6f11788b37f5b8ef7d66a28565056dc0a9817ee6050f642eca26daf359995c47"),
    (("report", "--group", "cyclic:5", "--set", "0,1"), 0,          # directed, loops
     "02d50bb94e856b7d71210f0172cb82b1889041f56b490b37f9cce3d186fc8123"),
    (("report", "--group", "cyclic:6", "--set", "1,3,5"), 0,        # K_{3,3}: twin classes
     "f86f0a59a23cc05e29730aa8963ec042a4143c1629ed558a0c3c9961d6eeeeb0"),
    (("report", "--group", "cyclic:5", "--set", "1,2", "--kind", "sum"), 0,
     "7176ec5f6410903793760a039afba1032bde5623e7a4325ce3ef3d6058d017af"),
    (("report", "--group", "dihedral:4", "--set", "1,3", "--tkind", "Se", "--kind", "sum"), 0,
     "bdd236cfd1200c4d915e7e81d7af015aa2ecb160613331ac297bb0a095dc6e2c"),
]


@pytest.mark.parametrize("argv, rc, digest", ERRATUM_AND_REPORT_SHA256,
                         ids=lambda x: " ".join(x)[:48] if isinstance(x, tuple) else None)
def test_erratum_pair_and_report_output_pinned(capsys, argv, rc, digest):
    code, out = run(capsys, *argv)
    assert code == rc
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _ints(first, last, step=1):
    return ",".join(str(x) for x in range(first, last + 1, step))


# sha256 of the full stdout of character-route spectra with 512 to 1001
# values, recorded before large spectra were merged and compared as whole
# arrays; the cyclic:1001 set has 500 distinct non-real character sums
LARGE_SPECTRUM_SHA256 = [
    (("--group", "cyclic:512", "--set", _ints(5, 488, 21), "--format", "json"),
     "be80f827c6a8177b8cda4a8dde677060d7fda2baae9963d69676cc0b97fd1ca2"),
    (("--group", "cyclic:1001", "--set", _ints(1, 500), "--format", "json"),
     "943545c8a738f913c064e6f287e0556648cc051871c3457df9027c0f0dd6b197"),
    (("--ring", "zpk:2^7*gf:3", "--set", "units", "--tkind", "Se", "--format", "csv"),
     "6cb3d5731dddcb7283dd5554f38b6bcee0a99cf43027901080f17ebe0847d5a8"),
]


@pytest.mark.parametrize("argv, digest", LARGE_SPECTRUM_SHA256, ids=lambda x: str(x)[:40])
def test_large_spectrum_output_pinned(capsys, argv, digest):
    code, out = run(capsys, "spectrum", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# exit code, sha256 of stdout and the full stderr of runs that stop in the
# parser, recorded before each subcommand's options were added on first use
MAIN_USAGE = "usage: spectra-forge [-h] {build,spectrum,compare,verify,pair,report} ...\n"
SPECTRUM_USAGE = (
    "usage: spectra-forge spectrum [-h] [--group GROUP] [--ring RING] --set SET\n"
    "                              [--kind {diff,difference,sum}]\n"
    "                              [--tkind {S,Se,e}] [--format {table,json,csv}]\n"
    "                              [--tol TOL] [--out OUT]\n"
)
EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PARSER_EXITS = [
    ((), 2, EMPTY_SHA256,
     MAIN_USAGE + "spectra-forge: error: the following arguments are required: command\n"),
    (("-h",), 0, "240bbd52555aeadc58da7379afba782fe0d666804c6c81788859560c5d8a88ae", ""),
    (("nonsense",), 2, EMPTY_SHA256,
     MAIN_USAGE + "spectra-forge: error: argument command: invalid choice: 'nonsense' "
     "(choose from 'build', 'spectrum', 'compare', 'verify', 'pair', 'report')\n"),
    (("spectrum", "-h"), 0,
     "9807d278b9087af215f1f782a9e97cad00ad1e35678355266213f9d6796c4ee8", ""),
    (("spectrum", "--group", "cyclic:4"), 2, EMPTY_SHA256,
     SPECTRUM_USAGE + "spectra-forge spectrum: error: the following arguments are required: --set\n"),
    (("spectrum", "--group", "cyclic:4", "--set", "1", "--bogus"), 2, EMPTY_SHA256,
     MAIN_USAGE + "spectra-forge: error: unrecognized arguments: --bogus\n"),
]


@pytest.mark.parametrize("argv, rc, out_digest, err", PARSER_EXITS,
                         ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
def test_parser_exits_pinned(capsys, monkeypatch, argv, rc, out_digest, err):
    monkeypatch.setenv("COLUMNS", "80")      # argparse wraps its texts to the terminal width
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == rc
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert captured.err == err


def test_integrality_criteria_output_pinned(capsys):
    # 415 reports: 127/124/90 passes for eulerian/boolean/gcd and 74 skips,
    # recorded before the three criteria shared one co-generation closure
    code, out = run(capsys, "verify", "--suite", "prop-integral-mdcgs",
                    "--seed", "30", "--trials", "200")
    assert code == 0
    assert len(out.splitlines()) == 415
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca51440ba0e249898d11c5fa5ce32918c7557a7d539c077088345af0048830dd")


def test_pair_hypothesis_violation(capsys):
    code = cli.main(["pair", "--ring", "gf:3"])
    assert code == cli.EXIT_HYPOTHESIS
    assert capsys.readouterr().err == (
        "error: hypothesis violation: need a local factor with r = 2m and an odd factor\n")


def test_report_command(capsys):
    code, out = run(capsys, "report", "--group", "cyclic:16",
                    "--set", "1,2,4,5,9,10,12,13")
    assert code == 0
    assert "directed: True" in out and "twin classes" in out


def test_parse_errors(capsys):
    assert cli.main(["spectrum", "--group", "cyclic:x", "--set", "1"]) == cli.EXIT_PARSE_ERROR
    assert cli.main(["spectrum", "--group", "cyclic:4", "--set", "units"]) == cli.EXIT_PARSE_ERROR
    assert cli.main(["spectrum", "--set", "1"]) == cli.EXIT_PARSE_ERROR
    assert cli.main(["nonsense"]) == cli.EXIT_PARSE_ERROR


def test_outputs_deterministic(capsys):
    _, a = run(capsys, "spectrum", "--ring", "zpk:2^2*gf:3", "--set", "units",
               "--tkind", "Se", "--kind", "sum")
    _, b = run(capsys, "spectrum", "--ring", "zpk:2^2*gf:3", "--set", "units",
               "--tkind", "Se", "--kind", "sum")
    assert a == b


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code = cli.main(["spectrum", "--group", "cyclic:4", "--set", "1,3",
                     "--format", "csv", "--out", str(target)])
    assert code == 0
    assert target.read_text().startswith("re,im,multiplicity")


def _input_error(capsys, *argv):
    """The exit code and stderr of a run that should fail on its input."""
    code = cli.main(list(argv))
    err = capsys.readouterr().err
    return code, err


BAD_INPUTS = [
    ("spectrum", "--group", "cyclic:4", "--set", "1,3", "--tol", "-1"),
    ("spectrum", "--group", "cyclic:4", "--set", "1,3", "--tol", "nan"),
    ("spectrum", "--group", "cyclic:4", "--set", "1,3", "--tol", "inf"),
    ("compare", "--group", "cyclic:4", "--set", "1,3", "--set2", "1,3", "--tol", "-1"),
    ("verify", "--seed", "-1", "--trials", "4"),
    ("verify", "--trials", "-3"),
    ("spectrum", "--ring", "gf:2^20000", "--set", "units"),
    ("spectrum", "--ring", "gr:2^1:200000", "--set", "units"),
    # one side names one group: --group and --ring are exclusive
    ("spectrum", "--group", "cyclic:4", "--set", "1,3", "--ring", "gf:9"),
    # 4002 vertices: over the dense route's vertex cap, refused before any graph is built
    ("spectrum", "--group", "dihedral:2001", "--set", "1", "--kind", "sum"),
    # exit 3 follows the error type, not a message that echoes the word
    ("spectrum", "--group", "hypothesis:3", "--set", "1"),
    ("spectrum", "--ring", "hypothesis:3", "--set", "units"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=lambda argv: " ".join(argv))
def test_bad_inputs_exit_2_with_one_error_line(capsys, argv):
    code, err = _input_error(capsys, *argv)
    assert code == cli.EXIT_PARSE_ERROR
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["cyclic", "dicyclic"])
def test_group_over_cap_exits_2_with_a_short_error(capsys, kind):
    # 4300 digits parse, but the order (4n for Dic_n) has too many to print
    code, err = _input_error(capsys, "spectrum", "--group", f"{kind}:{'9' * 4300}", "--set", "1")
    assert code == cli.EXIT_PARSE_ERROR
    assert err.splitlines() == ["error: group order exceeds cap 10000"]


def test_zero_tolerance_stays_valid(capsys):
    code, out = run(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3", "--tol", "0")
    assert code == 0 and "{[2]^1, [0]^2, [-2]^1}" in out and "symmetric: True" in out


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "spec.csv"
    code, err = _input_error(capsys, "spectrum", "--group", "cyclic:4", "--set", "1,3",
                             "--out", str(target))
    assert code == cli.EXIT_PARSE_ERROR
    assert err.startswith("error: cannot write") and str(target) in err


@pytest.mark.parametrize("suite", ["bogus", "prop-cayley-structure,bogus", "eq-unions"])
def test_unknown_suite_prefix_exits_2(capsys, suite):
    code, err = _input_error(capsys, "verify", "--suite", suite, "--trials", "4")
    assert code == cli.EXIT_PARSE_ERROR
    assert err.startswith("error:") and suite.split(",")[-1] in err


@pytest.mark.parametrize("suite", ["", "thm-main,", "thm-main, ,prop-cayley"])
def test_empty_suite_prefix_exits_2_before_any_check(capsys, monkeypatch, suite):
    def no_run(seed, trials):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(theorems, "run_suite", no_run)
    code, err = _input_error(capsys, "verify", "--suite", suite, "--trials", "2")
    assert code == cli.EXIT_PARSE_ERROR
    assert err.splitlines() == [f"error: --suite has an empty prefix: {suite!r}"]


def test_parser_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    commands = [
        ["spectrum", "--group", "cyclic:4", "--set", "1,3", "--format", "csv"],
        ["build", "--group", "cyclic:4", "--set", "1,3", "--tkind", "e", "--format", "json"],
        ["compare", "--group", "cyclic:4", "--set", "1,3", "--set2", "1"],
        ["pair", "--ring", "gf:3"],
        ["report", "--group", "cyclic:6", "--set", "1,5"],
        ["verify", "--suite", "prop-cayley", "--trials", "2"],
        ["spectrum", "--group", "cyclic:4"],
    ]

    def call(argv):
        code = cli.main(argv)
        return code, capsys.readouterr()

    shared = [call(argv) for argv in commands]
    alone = []
    for argv in commands:
        cli.build_parser.cache_clear()     # as in a fresh process
        alone.append(call(argv))
    assert shared == alone


# one command of each subcommand, then the iterated chain; run in a fresh
# interpreter because this process may already hold numpy.ma
NO_MASKED_ARRAYS = """
import json, sys
from spectra_forge import cli, finring, theorems
commands = [
    ["spectrum", "--ring", "zpk:2^2*gf:3", "--set", "units", "--tkind", "Se", "--kind", "sum"],
    ["spectrum", "--ring", "gf:9", "--set", "pk:2"],
    ["compare", "--group", "cyclic:16", "--set", "1,2,4,5,9,10,12,13",
     "--group2", "prod:(cyclic:4,cyclic:4)", "--set2", "1,2,4,6,9,10,13,15"],
    ["build", "--ring", "zpk:2^2*gf:3", "--set", "units", "--format", "json"],
    ["report", "--group", "cyclic:16", "--set", "1,2,4,5,9,10,12,13"],
    ["pair", "--ring", "zpk:2^2*gf:3"],
    ["verify", "--trials", "2"],
]
codes = [cli.main(argv) for argv in commands]
theorems.iterated_pairs(finring.parse_ring("zpk:2^2*gf:3"), 2)
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}), file=sys.stderr)
"""


def test_commands_never_import_numpy_ma():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    result = json.loads(done.stderr.splitlines()[-1])
    assert result == {"codes": [0] * 7, "ma": False}


# the irreducible blocks of S_n, Dic_n and D_n, plain and mirrored
BLOCKS_NO_MASKED_ARRAYS = """
import json, sys
from spectra_forge import cli
commands = [
    ["spectrum", "--group", "sym:5", "--set", "1,2,6,24,119", "--format", "json"],
    ["spectrum", "--group", "dicyclic:15", "--set", "1,2,31,58", "--tkind", "Se"],
    ["compare", "--group", "dihedral:24", "--set", "1,3,2,46", "--tkind", "e", "--set2", "1,5"],
]
codes = [cli.main(argv) for argv in commands]
print(json.dumps({"codes": codes, "ma": "numpy.ma" in sys.modules}), file=sys.stderr)
"""


def test_block_route_never_imports_numpy_ma():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", BLOCKS_NO_MASKED_ARRAYS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert json.loads(done.stderr.splitlines()[-1]) == {"codes": [0] * 3, "ma": False}
