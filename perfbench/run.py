"""rankforge benchmark: batch CLI runs, one fresh interpreter per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload tfnb-r8 --seed 1 --seconds 40 --trace 0

Users run rankforge as a batch CLI, one process per question, so every
measured run is a real ``python -m rankforge ...`` child started after the
previous one exits (a closed loop with one client). An in-process repeat
would hit the ``lru_cache`` behind orderly generation and hide work that every
CLI user pays on every run.

``--trace 0`` measures the end-to-end metrics: wall time, the child's CPU time
and peak RSS (from ``os.wait4`` on that child alone), and set-up time, the
median of several fresh-process ``rankforge bounds --r 8`` runs. It keeps
starting workload runs until the next one would end after ``--seconds``, and
reports medians. ``--trace 1`` makes one untraced and one traced run (see
``traced.py``) and reports the per-layer metrics listed in ``layer_map.json``.

Every run's output is checked against an oracle outside
``rankforge.enumeration``, and the deterministic counters must repeat exactly
between runs and between the traced run and its spans. A run that exits
non-zero, times out, answers wrongly or disagrees counts as failed.

The workloads are exhaustive and deterministic, so ``--seed`` only orders
the set-up probes among the workload runs, and which of the two trace-mode
runs goes first; machine-speed drift then does not always land on the same
metric. The last line of standard output is the result as one JSON object;
the line before it records the seed, the machine and every sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "tfnb-r8": ["enumerate", "--rank", "8", "--class", "tfnb", "--jobs", "1"],
    "tfnb-r9": ["enumerate", "--rank", "9", "--class", "tfnb", "--jobs", "1"],
    "bigen-r8": ["verify", "--theorem", "bigen", "--r", "8", "--jobs", "1"],
}
SETUP_ARGV = ["bounds", "--r", "8"]
SETUP_PROBES = 11
# Every child must end before this many seconds since start, so that the
# benchmark itself exits within its 180-second limit.
HARD_LIMIT_S = 165.0
REPORT_COUNTERS = ("cores_processed", "candidates_total", "nodes_explored")


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_cli(argv: list[str], timeout: float, script: list[str] | None = None) -> Run:
    """Run one fresh rankforge process from the checkout and reap it with
    ``wait4``, so its resource usage is that child's alone."""
    cmd = [sys.executable, *(script or ["-m", "rankforge"]), *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stdout=out,
    )


# ---------------------------------------------------------------------------
# Oracles: expected answers from constructions and canonical labeling, never
# from rankforge.enumeration. A check returns the run's deterministic
# counters, or None when the run failed.
# ---------------------------------------------------------------------------


def make_check(workload: str):
    from rankforge.canonical import canonical_graph, to_graph6
    from rankforge.constructions import c_bound, extremal_triangle_free

    if workload == "bigen-r8":
        line = (
            f"PASS bigen r=8: 18 reduced bipartite rank-8 graphs of order > {c_bound(8)}; "
            "0 with minimum part != 4"
        )

        def check(run: Run):
            if run.exit_code != 0 or run.stdout.strip() != line:
                return None
            return {"distinct_graphs": 18}

        return check

    r = int(WORKLOADS[workload][2])
    order = c_bound(r)
    extremal = [to_graph6(canonical_graph(extremal_triangle_free(r).graph))]

    def check(run: Run):
        if run.exit_code != 0:
            return None
        try:
            payload = json.loads(run.stdout)
        except ValueError:
            return None
        if payload.get("max_order") != order or payload.get("extremal") != extremal:
            return None
        return {key: payload.get(key) for key in REPORT_COUNTERS}

    return check


def make_setup_check():
    from rankforge.constructions import c_bound

    expected = f"c(8) = {c_bound(8)}"
    return lambda run: run.exit_code == 0 and expected in run.stdout


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Session:
    """Runs children against one deadline and keeps the pass/fail tally."""

    def __init__(self):
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def run(self, argv, check, script=None):
        """One child run and its check's verdict; a falsy verdict is a failure."""
        run = run_cli(argv, max(1.0, self.remaining()), script)
        verdict = check(run)
        self.attempted += 1
        if not verdict:
            self.failed += 1
        return run, verdict


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def measure_end_to_end(workload: str, seconds: float, rng: random.Random) -> tuple[Session, dict]:
    check = make_check(workload)
    setup_ok = make_setup_check()
    session = Session()
    session.run(SETUP_ARGV, setup_ok)  # warm-up: compiles bytecode, not timed
    deadline = time.perf_counter() + seconds
    setup_runs: list[Run] = []
    runs: list[Run] = []
    counters = []

    def probe(k: int):
        for _ in range(min(k, SETUP_PROBES - len(setup_runs))):
            setup_runs.append(session.run(SETUP_ARGV, setup_ok)[0])

    while True:
        probe(rng.randint(0, 3))
        run, got = session.run(WORKLOADS[workload], check)
        runs.append(run)
        counters.append(got)
        last = run.wall_s
        probe_time = max((r.wall_s for r in setup_runs), default=0.5)
        reserve = (SETUP_PROBES - len(setup_runs)) * probe_time
        now = time.perf_counter()
        if now + last + reserve > deadline or session.remaining() < 2 * last + reserve:
            break
    probe(SETUP_PROBES)
    # Deterministic counters must repeat exactly in every good run.
    good = [c for c in counters if c is not None]
    session.failed += sum(c != good[0] for c in good)

    metrics, samples = {}, {}
    for name, unit, values in (
        ("wall_s", "s", [r.wall_s for r in runs]),
        ("cpu_s", "s", [r.cpu_s for r in runs]),
        ("peak_rss_mb", "MB", [r.peak_rss_mb for r in runs]),
        ("setup_s", "s", [r.wall_s for r in setup_runs]),
    ):
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        samples[name] = summary(values)
    samples["counters"] = counters
    return session, {"metrics": metrics, "samples": samples}


def measure_layers(workload: str, rng: random.Random) -> tuple[Session, dict]:
    check = make_check(workload)
    session = Session()
    session.run(SETUP_ARGV, make_setup_check())  # warm-up: compiles bytecode
    results = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        spans_path = os.path.join(tmp, "spans.json")
        order = ["untraced", "traced"]
        rng.shuffle(order)
        for kind in order:
            script = [str(HERE / "traced.py"), spans_path] if kind == "traced" else None
            results[kind] = session.run(WORKLOADS[workload], check, script)
        if not os.path.exists(spans_path):  # the traced child crashed: already failed
            return session, {"metrics": {}, "samples": {}}
        with open(spans_path) as fh:
            dump = json.load(fh)

    untraced, base_counters = results["untraced"]
    traced, traced_counters = results["traced"]
    values = layer_metrics(dump["spans"], dump["graphs_generated"])
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    span_counters = spans_counters(workload, dump["spans"], values)
    # The traced run must report what the untraced run reported, and its spans
    # must count what its report counts.
    if not (base_counters == traced_counters == span_counters):
        session.failed += 1
    with open(HERE / "layer_map.json") as fh:
        units = {name: spec["unit"] for name, spec in json.load(fh)["metrics"].items()}
    if set(units) != set(values):
        raise RuntimeError(f"layer metrics differ from layer_map.json: {set(units) ^ set(values)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    samples = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
               "report_counters": base_counters, "span_counters": span_counters}
    return session, {"metrics": metrics, "samples": samples}


def distinct_graphs(spans: list[list]) -> int:
    return len({tuple(s[4]) for s in spans if s[0] == "canonical_graph"})


def spans_counters(workload: str, spans: list[list], values: dict) -> dict:
    """The span-derived counts that the workload's report also states."""
    if workload == "bigen-r8":
        return {"distinct_graphs": distinct_graphs(spans)}
    return {
        "cores_processed": values["enumeration.cores_processed"],
        "candidates_total": values["enumeration.candidates_total"],
        "nodes_explored": values["enumeration.nodes_explored"],
    }


def layer_metrics(spans: list[list], graphs_generated: int) -> dict:
    """Per-layer metrics from spans ``[name, start, end, parent, detail]``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def of(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in of(name))

    def self_total(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in of(name))

    def under_generation(i):
        while i >= 0:
            if spans[i][0] == "graphs_of_order":
                return True
            i = spans[i][3]
        return False

    generation_forms = sum(1 for i in of("canonical_form") if under_generation(spans[i][3]))
    searches = [spans[i] for i in of("max_extension")]
    search_self = self_total("max_extension")
    nodes = sum(s[4][0] for s in searches)
    emitted = sum(spans[i][4] for i in of("all_extensions"))
    distinct = distinct_graphs(spans)
    values = {
        "enumeration.graphs_of_order.s": total("graphs_of_order"),
        "enumeration.graphs_of_order.self_s": self_total("graphs_of_order"),
        "enumeration.generation.accept_ratio":
            graphs_generated / generation_forms if generation_forms else 0.0,
        "enumeration.candidates.s": total("candidates"),
        "enumeration.candidates_total": sum(s[4][1] for s in searches),
        "enumeration.max_extension.s": total("max_extension"),
        "enumeration.max_extension.slowest_s": max((s[2] - s[1] for s in searches), default=0.0),
        "enumeration.nodes_explored": nodes,
        "enumeration.search.nodes_per_s": nodes / search_self if search_self else 0.0,
        "enumeration.all_extensions.s": total("all_extensions"),
        "enumeration.all_extensions.emitted": emitted,
        "enumeration.all_extensions.distinct_ratio": distinct / emitted if emitted else 0.0,
        "enumeration.complete.calls": len(of("complete")),
        "enumeration.complete.s": total("complete"),
        "enumeration.cores_processed": len(searches) + len(of("all_extensions")),
        "graphs.predicates.s": sum(
            total(name) for name in ("bipartition", "is_reduced", "is_triangle_free")),
    }
    for module, name in (("canonical", "canonical_form"), ("canonical", "canonical_graph"),
                         ("linalg", "det_exact"), ("linalg", "adjugate"),
                         ("linalg", "rank_exact")):
        values[f"{module}.{name}.calls"] = len(of(name))
        values[f"{module}.{name}.s"] = total(name)
    return values


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rankforge" / "__init__.py").is_file():
        print(f"error: no rankforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    rng = random.Random(args.seed)
    if args.trace:
        session, result = measure_layers(args.workload, rng)
    else:
        session, result = measure_end_to_end(args.workload, args.seconds, rng)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info(), "samples": result["samples"]}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
