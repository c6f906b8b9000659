"""Run the rankforge CLI with a span around every call to a traced public name.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/traced.py SPANS_FILE CLI_ARG...

The public names of ``rankforge.enumeration`` listed in ``TRACED`` are
replaced by wrappers before the CLI runs, so every call that enumeration code
makes through them records a span ``[name, start, end, parent, detail]``:
``parent`` is the index of the enclosing span (-1 at top level) and
``detail`` is a per-name summary of the arguments or result, such as the node
count of a search. Calls a module makes through its own names (for instance
the predicate captured in ``enumeration._HEREDITARY``) are not seen, so their
time stays in the caller's self time. Spans stay in memory and are written to
SPANS_FILE as JSON when the CLI returns; the CLI's own output and exit code
are unchanged.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

import rankforge.enumeration as enumeration
from rankforge import cli


def _graph_key(args, kwargs, result):
    return [result.n, *result.adj]


# name -> function(args, kwargs, result) giving the span's detail, or None.
TRACED = {
    "graphs_of_order": lambda args, kwargs, result: [*args, *kwargs.values(), len(result)],
    "canonical_form": None,
    "canonical_graph": _graph_key,
    "det_exact": None,
    "adjugate": None,
    "rank_exact": None,
    "candidates": lambda args, kwargs, result: len(result),
    "max_extension": lambda args, kwargs, result: [result.nodes, result.candidate_count],
    "all_extensions": lambda args, kwargs, result: len(result),
    "complete": None,
    "bipartition": None,
    "is_reduced": None,
    "is_triangle_free": None,
}


class Tracer:
    """Keeps the spans of one process and the stack of open ones."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, detail):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if detail is not None:
                span[4] = detail(args, kwargs, result)
            return result

        return traced


def main(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    originals = {name: getattr(enumeration, name) for name in TRACED}
    for name, detail in TRACED.items():
        setattr(enumeration, name, tracer.wrap(name, originals[name], detail))
    code = cli.main(cli_args)
    # Accepted graphs over all generation levels, for the generation accept
    # ratio. Asked after the CLI returned, so it is outside every span.
    levels = {(d[0], d[1]) for name, _, _, _, d in tracer.spans if name == "graphs_of_order"}
    generated = sum(
        len(originals["graphs_of_order"](m, hereditary))
        for n, hereditary in levels
        for m in range(1, n + 1)
    )
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "graphs_generated": generated}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
