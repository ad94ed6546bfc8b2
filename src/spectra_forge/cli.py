"""Command-line front end: build graphs from descriptors, compute and
compare spectra, run the verification suite, and build even/odd pairs.

Exit codes: 0 success, 1 internal check failure, 2 parse error,
3 hypothesis violation.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import algebra, finring, graphs, spectra, theorems
from .algebra import FiniteGroup, GroupSubset, GroupError
from .finring import RingError
from .graphs import GraphError
from .spectra import SpectrumError
from .theorems import HypothesisError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_HYPOTHESIS = 3

KIND_ALIASES = {"diff": "difference", "difference": "difference", "sum": "sum"}
TKIND_ALIASES = {"e": "identity", "S": "S", "Se": "S_and_identity"}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_group(args) -> tuple[FiniteGroup, object]:
    ring, group = getattr(args, "ring", None), getattr(args, "group", None)
    if ring and group:
        raise CliError("--group and --ring are exclusive", EXIT_PARSE_ERROR)
    if ring:
        ring = finring.parse_ring(ring)
        return finring.additive_group(ring), ring
    if group:
        return algebra.make_group(group), None
    raise CliError("one of --group or --ring is required", EXIT_PARSE_ERROR)


def _resolve_subset(group: FiniteGroup, ring, descriptor: str) -> GroupSubset:
    d = descriptor.strip()
    if d == "units":
        if ring is None:
            raise CliError("subset 'units' requires --ring", EXIT_PARSE_ERROR)
        return finring.units(ring)
    if d.startswith("pk:"):
        if ring is None:
            raise CliError("subset 'pk:k' requires --ring", EXIT_PARSE_ERROR)
        try:
            k = int(d[3:])
        except ValueError:
            raise CliError(f"bad power residue descriptor {d!r}", EXIT_PARSE_ERROR)
        return finring.power_residues(ring, k)
    if d.startswith("gcd:"):
        try:
            divisors = [int(x) for x in d[4:].split(",") if x.strip()]
        except ValueError:
            raise CliError(f"bad gcd descriptor {d!r}", EXIT_PARSE_ERROR)
        S = GroupSubset(group, ())
        for div in divisors:
            S = S.union(algebra.gcd_class(group, div))
        return S
    try:
        members = [int(x) for x in d.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"bad subset descriptor {d!r}", EXIT_PARSE_ERROR)
    return GroupSubset(group, tuple(members))


def _resolve_sets(args) -> tuple[GroupSubset, str | None]:
    """S, and the kind of the mirror di-connection set T (None without --tkind)."""
    S = _resolve_subset(*_resolve_group(args), args.set)
    return S, TKIND_ALIASES.get(getattr(args, "tkind", None))


def _build_graph(args) -> tuple[graphs.Graph, list[str]]:
    """The graph and its vertex names: g for X*(G,S), and (g,i) with all
    i = 0 first for MX*(G;S,T)."""
    S, t_kind = _resolve_sets(args)
    kind, n = KIND_ALIASES[args.kind], S.parent.order
    if t_kind is None:
        return graphs.cayley(S, kind), [str(g) for g in range(n)]
    return (graphs.mirror_dicayley(S, theorems.t_subset(S, t_kind), kind),
            [f"({g},{i})" for i in (0, 1) for g in range(n)])


def _spectrum(args) -> spectra.Spectrum:
    S, t_kind = _resolve_sets(args)
    spec = theorems.spectrum_of(S, KIND_ALIASES[args.kind], t_kind)
    if spec is None:
        raise CliError(
            "no exact spectrum route for a directed non-abelian instance", EXIT_HYPOTHESIS
        )
    return spec


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc.strerror or exc}", EXIT_PARSE_ERROR) from None
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    graph, labels = _build_graph(args)
    if args.format == "json":
        _emit(graph.to_json(labels) + "\n", args)
    elif args.format == "dot":
        _emit(graph.to_dot(labels), args)
    else:
        lines = [f"vertices: {graph.n}"]
        lines.append(f"undirected: {graph.undirected}")
        lines.append(f"regular degree: {graph.regular_degree}")
        for label, row in zip(labels, graph.rows()):
            lines.append(f"{label:>8} {row}")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    spec = _spectrum(args)
    if args.tol is not None:
        spec = spectra.Spectrum.from_pairs(spec.entries, args.tol)
    if args.format == "json":
        _emit(spectra.spectrum_to_json(spec) + "\n", args)
    elif args.format == "csv":
        _emit(spec.to_csv(), args)
    else:
        cls = spectra.classify(spec)
        _emit(
            f"spectrum: {spec}\n"
            f"integral: {cls.integral}  parity: {cls.parity}  "
            f"symmetric: {cls.symmetric}  almost_symmetric: {cls.almost_symmetric}\n",
            args,
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    def pick(name: str, fallback):     # a second selector falls back only when absent
        value = getattr(args, f"{name}2")
        return fallback if value is None else value

    first = argparse.Namespace(
        group=args.group, ring=args.ring, set=args.set, kind=args.kind, tkind=args.tkind
    )
    # group and ring fall back as a pair, only when neither is given (empty is absent)
    side2 = (args.group2, args.ring2)
    group2, ring2 = side2 if any(side2) else (args.group, args.ring)
    second = argparse.Namespace(
        group=group2, ring=ring2,
        set=pick("set", args.set), kind=pick("kind", args.kind), tkind=pick("tkind", args.tkind),
    )
    sp1 = _spectrum(first)
    sp2 = _spectrum(second)
    tol = args.tol if args.tol is not None else spectra.MERGE_TOL
    iso = spectra.isospectral(sp1, sp2, tol)
    _emit(
        f"first:  {sp1}\nsecond: {sp2}\nisospectral: {iso}\n",
        args,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    wanted = None if args.suite == "all" else [w.strip() for w in args.suite.split(",")]
    if wanted is not None and "" in wanted:      # an empty prefix would match every claim
        raise CliError(f"--suite has an empty prefix: {args.suite!r}", EXIT_PARSE_ERROR)
    reports = theorems.run_suite(seed=args.seed, trials=args.trials)
    if wanted is not None:
        unmatched = [w for w in wanted if not any(r.claim_id.startswith(w) for r in reports)]
        if unmatched:
            raise CliError(f"--suite prefix matches no report: {', '.join(unmatched)}",
                           EXIT_PARSE_ERROR)
        reports = [r for r in reports if any(r.claim_id.startswith(w) for w in wanted)]
    lines = [r.to_json(args.seed) for r in reports]
    _emit("\n".join(lines) + "\n", args)
    bad = [r for r in reports if not r.ok]
    return EXIT_CHECK_FAILURE if bad else EXIT_OK


def cmd_pair(args) -> int:
    ring = finring.parse_ring(args.ring)
    reports = theorems.build_even_odd_pair(ring)
    S = finring.units(ring)
    even, odd_d, odd_s, zero = (   # memoized on S by build_even_odd_pair
        theorems.spectrum_of(S, kind, t_kind)
        for kind, t_kind in (("difference", "S"), ("difference", "S_and_identity"),
                             ("sum", "S_and_identity"), ("difference", "identity")))
    lines = [f"ring: {ring.label}"]
    lines.append(f"even pair spectrum (shared): {even}")
    even_cls = spectra.classify(even)
    lines.append(
        f"  parity={even_cls.parity} symmetric={even_cls.symmetric} "
        f"bipartite={even_cls.bipartite_criterion}"
    )
    lines.append(f"odd graph spectrum (difference): {odd_d}")
    lines.append(f"odd graph spectrum (sum):        {odd_s}")
    odd_cls = spectra.classify(odd_d)
    lines.append(
        f"  parity={odd_cls.parity} symmetric={odd_cls.symmetric} "
        f"bipartite={odd_cls.bipartite_criterion}"
    )
    lines.append(f"zero-case pair spectrum (shared): {zero}")
    for r in reports:
        note = f" [{r.witness}]" if r.witness else ""
        lines.append(f"check {r.claim_id}: {r.outcome}{note}")
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_CHECK_FAILURE


def cmd_report(args) -> int:
    graph, _ = _build_graph(args)
    rep = graphs.structure_report(graph)
    lines = [
        f"vertices: {graph.n}",
        f"directed: {rep.directed}",
        f"loop vertices: {list(rep.loop_vertices)}",
        f"regular degree: {rep.regular_degree}",
        f"bipartite: {rep.bipartite}",
        f"components: {len(rep.components)}",
        f"twin classes (nontrivial): {[list(c) for c in rep.twin_classes if len(c) > 1]}",
    ]
    _emit("\n".join(lines) + "\n", args)
    return EXIT_OK


def _non_negative(convert):
    """An argparse type: convert(text), which must be finite and >= 0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = -1
        if not 0 <= value < float("inf"):        # also rejects nan
            raise argparse.ArgumentTypeError(
                f"must be a finite {convert.__name__} >= 0, got {text!r}")
        return value
    return parse


def _add_selectors(p: argparse.ArgumentParser, suffix: str = ""):
    p.add_argument(f"--group{suffix}", help="group descriptor, e.g. cyclic:4")
    p.add_argument(f"--ring{suffix}", help="ring descriptor, e.g. zpk:2^2*gf:3")
    p.add_argument(f"--set{suffix}", required=not suffix,
                   help="subset: indices, units, pk:k or gcd:d1,d2")
    p.add_argument(f"--kind{suffix}", choices=sorted(KIND_ALIASES),
                   default="diff" if not suffix else None,
                   help="difference or sum rule")
    p.add_argument(f"--tkind{suffix}", choices=sorted(TKIND_ALIASES), default=None,
                   help="build the mirror graph with this di-connection set")


def _build_options(p: argparse.ArgumentParser) -> None:
    _add_selectors(p)
    p.add_argument("--format", choices=("json", "dot", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)


def _spectrum_options(p: argparse.ArgumentParser) -> None:
    _add_selectors(p)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--tol", type=_non_negative(float), default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)


def _compare_options(p: argparse.ArgumentParser) -> None:
    _add_selectors(p)
    _add_selectors(p, suffix="2")
    p.add_argument("--tol", type=_non_negative(float), default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", default="all",
                   help="'all' or comma-separated claim id prefixes")
    p.add_argument("--seed", type=_non_negative(int), default=7)
    p.add_argument("--trials", type=_non_negative(int), default=20)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)


def _pair_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pair)


def _report_options(p: argparse.ArgumentParser) -> None:
    _add_selectors(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)


SUBCOMMANDS = (
    ("build", "construct a graph", _build_options),
    ("spectrum", "compute a spectrum", _spectrum_options),
    ("compare", "compare two spectra", _compare_options),
    ("verify", "run the verification suite", _verify_options),
    ("pair", "build the even/odd mirror pair of a ring", _pair_options),
    ("report", "structure report of a graph", _report_options),
)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser that is set up (ArgumentParser's own set-up,
    then ``add_options``) the first time it parses, so a run builds only
    the subcommand it runs.  Every subcommand is registered up front, in
    order, so the main usage, help and error texts list all of them; they
    read only the names and help lines, never an unbuilt parser."""

    def __init__(self, add_options, **kwargs):      # the base __init__ waits for the first parse
        self._pending = add_options, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            add_options, kwargs = self._pending
            self._pending = None
            super().__init__(**kwargs)
            add_options(self)
        return super().parse_known_args(args, namespace)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing adds a
    subcommand's options once and otherwise leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="spectra-forge",
        description="Cayley, Cayley sum and mirror di-Cayley graph spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_text, add_options in SUBCOMMANDS:
        sub.add_parser(name, help=help_text, add_options=add_options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except HypothesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (GroupError, RingError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SpectrumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
