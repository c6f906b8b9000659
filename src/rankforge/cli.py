"""Batch command-line surface. Graphs travel as graph6 on stdin/stdout.

Exit codes: 0 success / theorem verified, 1 theorem counterexample found,
2 usage or guard error, 3 internal error (a soundness re-check failed: a bug),
141 stdout closed by its reader (``| head -1``; nothing goes to stderr).

Each command imports the modules it runs when it runs, so it compiles and
keeps only these rankforge modules besides ``cli`` and ``graphs``:

  bounds                   constructions
  construct                constructions, canonical
  rank                     canonical, linalg
  reduce, check            canonical
  lemma                    structure, canonical, linalg
  code                     codes, linalg (plotkin also canonical, for graph6)
  enumerate, merge         enumeration, canonical, linalg
  verify                   enumeration, canonical, linalg, constructions
"""
from __future__ import annotations

import argparse
import os
import sys

from .graphs import (
    Graph,
    InternalError,
    bipartition,
    bits,
    independence_number,
    is_reduced,
    is_triangle_free,
    mask_of,
    reduce_graph,
)

COUNTEREXAMPLE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE


def _read_lines(source: str) -> list[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    with open(source) as fh:
        return fh.read().splitlines()


def _read_graphs(source: str) -> list[Graph]:
    from .canonical import from_graph6

    graphs = [from_graph6(line) for line in _read_lines(source) if line.strip()]
    if not graphs:
        raise ValueError("no graph6 input")
    return graphs


def _read_one_graph(source: str) -> Graph:
    graphs = _read_graphs(source)
    if len(graphs) != 1:
        raise ValueError("expected exactly one graph6 line")
    return graphs[0]


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_bounds(args) -> int:
    from .constructions import bounds

    table = bounds(args.r)
    lines = [f"rank r = {table.rank}"]
    lines.append(f"  reduced max order          2^r-1  = {table.max_order}")
    if table.construction_order is not None:
        lines.append(f"  doubling construction      mu(r)  = {table.construction_order}")
    if table.tree_max_order is not None:
        lines.append(f"  tree max order             t(r)   = {table.tree_max_order}")
    if table.bipartite_max_order is not None:
        lines.append(f"  bipartite max order        b(r)   = {table.bipartite_max_order}")
    if table.triangle_free_max_order is not None:
        lines.append(
            f"  triangle-free non-bipartite max order  "
            f"c({table.rank}) = {table.triangle_free_max_order}"
        )
    print("\n".join(lines))
    return 0


def _cmd_construct(args) -> int:
    from .canonical import to_graph6
    from .constructions import (
        bipartite_remark_graph,
        extremal_triangle_free,
        extremal_triangle_free_recursive,
        odd_subset_incidence_graph,
        subset_incidence_graph,
    )

    kind, p = args.kind, args.param
    if kind == "B":
        g = subset_incidence_graph(p)
    elif kind == "O":
        g = odd_subset_incidence_graph(p)
    elif kind == "C":
        g = extremal_triangle_free_recursive(p) if args.recursive else extremal_triangle_free(p).graph
    else:
        g = bipartite_remark_graph(p)
    _emit(to_graph6(g), args.out)
    return 0


def _cmd_rank(args) -> int:
    from .linalg import adjacency_matrix, rank_exact

    for g in _read_graphs(args.input):
        print(rank_exact(adjacency_matrix(g)))
    return 0


def _cmd_reduce(args) -> int:
    from .canonical import to_graph6

    for g in _read_graphs(args.input):
        print(to_graph6(reduce_graph(g)))
    return 0


def _cmd_check(args) -> int:
    for g in _read_graphs(args.input):
        if args.property == "reduced":
            print("true" if is_reduced(g) else "false")
        elif args.property == "trianglefree":
            print("true" if is_triangle_free(g) else "false")
        elif args.property == "bipartite":
            parts = bipartition(g)
            if parts is None:
                print("false")
            else:
                print(f"true parts={parts[0].bit_count()},{parts[1].bit_count()}")
        elif args.property == "alpha":
            size, witness = independence_number(g)
            print(f"{size} witness={','.join(map(str, bits(witness)))}")
    return 0


def _cmd_lemma(args) -> int:
    import json

    from .structure import (
        max_subgraph_below_rank,
        obstruction_free,
        rank_drop_neighborhood,
        rank_drop_symdiff,
    )

    g = _read_one_graph(args.input)
    if args.which == "neighborhood":
        lhs, rhs, holds = rank_drop_neighborhood(g, args.v)
        print(f"rank(G-N(v))={lhs} rank(G)-2={rhs} holds={str(holds).lower()}")
        return 0 if holds else COUNTEREXAMPLE
    if args.which == "symdiff":
        lhs, rhs, holds = rank_drop_symdiff(g, args.u, args.v)
        print(f"rank(G-(N(u)^N(v)))={lhs} rank(G)-2={rhs} holds={str(holds).lower()}")
        return 0 if holds else COUNTEREXAMPLE
    # lov
    report = max_subgraph_below_rank(g, args.gap)
    payload = report.to_payload()
    payload["obstruction_free"] = obstruction_free(report)
    _emit(json.dumps(payload, indent=2), args.report)
    ok = all(v.ok for v in report.verdicts.values())
    return 0 if ok else COUNTEREXAMPLE


def _cmd_code(args) -> int:
    from . import codes as codes_mod

    if args.which == "singleton":
        code = codes_mod.code_from_lines(_read_lines(args.input))
        d = args.d if args.d is not None else codes_mod.min_distance(code)
        verdict = codes_mod.singleton_verify(code, d)
        print(
            f"size={len(code)} bound={verdict.bound} holds={str(verdict.holds).lower()} "
            f"equality={verdict.equality}"
        )
        return 0 if verdict.holds else COUNTEREXAMPLE
    if args.which == "plotkin":
        g = _read_one_graph(args.input)
        if args.set is not None:
            ids: list[int] = []
            for tok in args.set.split(","):
                try:
                    v = int(tok)
                except ValueError:
                    raise ValueError(f"--set token {tok!r} is not a vertex id") from None
                if v in ids:
                    raise ValueError(f"--set repeats vertex {v}")
                ids.append(v)
            if not all(0 <= v < g.n for v in ids):
                raise IndexError("vertex index out of range")
            s = mask_of(ids)
        else:
            _, s = independence_number(g)
        res = codes_mod.plotkin_bound_check(g, s)
        print(
            f"set_size={s.bit_count()} bound={res.bound} min_symdiff={res.min_symdiff} "
            f"holds={str(res.holds).lower()}"
        )
        return 0 if res.holds else COUNTEREXAMPLE
    if args.which == "f2n":
        code = codes_mod.code_from_lines(_read_lines(args.input))
        res = codes_mod.rowspace_distance2_bound(code)
        print(f"size={len(code)} bound={res.bound} holds={str(res.holds).lower()}")
        return 0 if res.holds else COUNTEREXAMPLE
    # f2n-max
    best, witness = codes_mod.rowspace_distance2_max(
        args.n, use_theorem_cutoff=not args.no_cutoff
    )
    bound = codes_mod.rowspace_distance2_bound(witness).bound
    print(f"n={args.n} max_size={best} bound={bound}")
    for line in witness.to_lines():
        print(line)
    return 0


def _cmd_enumerate(args) -> int:
    import json

    from . import enumeration as enum_mod

    # --class is a GraphClass value or one of three short names for one.
    short = {"tf": "triangle-free", "bi": "bipartite", "tfnb": "triangle-free-nonbipartite"}
    cls = enum_mod.GraphClass(short.get(args.graph_class, args.graph_class))
    report = enum_mod.enumerate_extremal(
        args.rank,
        cls,
        jobs=args.jobs,
        progress=args.progress,
        shards=args.shards,
        shard_index=args.shard_index,
    )
    _emit(json.dumps(report.to_payload(), indent=2), args.report)
    return 0


def _cmd_merge(args) -> int:
    import json

    from .enumeration import merge_reports

    payloads = []
    for path in args.files:
        with open(path) as fh:
            payloads.append(json.load(fh))
    _emit(json.dumps(merge_reports(payloads), indent=2), args.report)
    return 0


def _cmd_verify(args) -> int:
    from . import enumeration as enum_mod

    result = enum_mod.verify_theorem(
        args.theorem, args.r, jobs=args.jobs, progress=args.progress
    )
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.theorem} r={result.rank}: {result.message}")
    for g6 in result.counterexamples:
        print(f"counterexample: {g6}")
    return 0 if result.passed else COUNTEREXAMPLE


def _positive_int(token: str) -> int:
    """An argparse type: an integer of at least 1, such as a ``--jobs`` count."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankforge",
        description="Exact-rank toolkit for reduced triangle-free and bipartite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The graph6 or code input of every command that reads one.
    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("input", nargs="?", default="-")

    p = sub.add_parser("bounds", help="print the order-bound table for a rank")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("construct", help="emit a named construction as graph6")
    p.set_defaults(func=_cmd_construct)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("B", "O", "C", "remark"):
        k = kinds.add_parser(kind)
        k.add_argument("--param", type=int, required=True)
        k.add_argument("--out")
    kinds.choices["C"].add_argument("--recursive", action="store_true",
                                    help="use the doubling recursion")

    p = sub.add_parser("rank", parents=[inp], help="exact adjacency rank of graph6 input")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("reduce", parents=[inp], help="delete isolated vertices and collapse twins")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check", help="predicates and independence number")
    p.add_argument("property", choices=["reduced", "trianglefree", "bipartite", "alpha"])
    p.add_argument("input", nargs="?", default="-")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lemma", help="rank-drop checks and the subgraph report")
    p.set_defaults(func=_cmd_lemma)
    which = p.add_subparsers(dest="which", required=True)
    w = which.add_parser("neighborhood", parents=[inp])
    w.add_argument("--v", type=int, required=True)
    w = which.add_parser("symdiff", parents=[inp])
    w.add_argument("--u", type=int, required=True)
    w.add_argument("--v", type=int, required=True)
    w = which.add_parser("lov", parents=[inp])
    w.add_argument("--gap", type=int, choices=[1, 2], default=1)
    w.add_argument("--report")

    p = sub.add_parser("code", help="binary-code bound checks")
    p.set_defaults(func=_cmd_code)
    which = p.add_subparsers(dest="which", required=True)
    w = which.add_parser("singleton", parents=[inp])
    w.add_argument("--d", type=int, help="distance parameter")
    w = which.add_parser("plotkin", parents=[inp])
    w.add_argument("--set", help="comma-separated independent set")
    which.add_parser("f2n", parents=[inp])
    w = which.add_parser("f2n-max")
    w.add_argument("--n", type=int, required=True, help="code length")
    w.add_argument("--no-cutoff", action="store_true",
                   help="disable the proven-bound cutoff")

    p = sub.add_parser("enumerate", help="extremal-order report for a rank and class")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--class", dest="graph_class", required=True, choices=[
        "all", "triangle-free", "tf", "bipartite", "bi", "triangle-free-nonbipartite", "tfnb",
    ])
    p.add_argument("--jobs", type=_positive_int, default=os.cpu_count(),
                   help="worker processes (default: the CPU count)")
    p.add_argument("--report")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--shards", type=_positive_int)
    p.add_argument("--shard-index", type=int)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("merge", help="merge the shard reports of one enumerate run")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("verify", help="check a headline theorem at desk scale")
    p.add_argument("--theorem", choices=["main", "bi", "bigen", "remark"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=os.cpu_count(),
                   help="worker processes for main and bi; bigen and remark "
                        "run in one process and ignore it")
    p.add_argument("--progress", action="store_true",
                   help="per-core progress on stderr for main and bi; bigen and remark "
                        "ignore it")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error
            code = USAGE_ERROR if exc.code not in (0, None) else 0
        else:
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`... | head -1`): stop quietly, with the
        # status of a process killed by SIGPIPE, and let the flush at exit
        # write what is left to os.devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
