#!/usr/bin/env python3
"""Extended runs: sharded rank-9 enumeration with report merging, and the
cutoff-free exhaustive code search at length 6 (about 55 s).

The sharded path exists to demonstrate resumability: each shard writes its own
report file, and the merge reproduces the single-run report exactly (modulo
elapsed time).
"""
import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rankforge.cli import positive_int
from rankforge.codes import rowspace_distance2_max
from rankforge.enumeration import (
    GraphClass,
    enumerate_extremal,
    merge_reports,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=positive_int, default=4)
    parser.add_argument("--jobs", type=positive_int, default=1)
    parser.add_argument("--outdir", default="reports")
    parser.add_argument("--skip-codes", action="store_true")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(exist_ok=True)

    cls = GraphClass.TRIANGLE_FREE_NONBIPARTITE
    payloads = []
    for i in range(args.shards):
        t0 = time.time()
        rep = enumerate_extremal(9, cls, jobs=args.jobs, shards=args.shards, shard_index=i)
        path = outdir / f"rank9-shard{i}.json"
        path.write_text(json.dumps(rep.to_payload(), indent=2) + "\n")
        payloads.append(rep.to_payload())
        print(f"shard {i + 1}/{args.shards}: max {rep.max_order}, "
              f"{rep.cores_processed} cores, {time.time() - t0:.1f}s -> {path}")

    merged = merge_reports(payloads)
    merged_path = outdir / "rank9-merged.json"
    merged_path.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"merged: max_order {merged['max_order']}, "
          f"extremal {merged['extremal']} -> {merged_path}")

    full = enumerate_extremal(9, cls, jobs=args.jobs).to_payload()
    same = all(merged[k] == v for k, v in full.items() if k != "elapsed_ms")
    print(f"merge equals single run: {same}")

    if not args.skip_codes:
        t0 = time.time()
        best, _ = rowspace_distance2_max(6, use_theorem_cutoff=False)
        print(f"length-6 exhaustive (no cutoff): optimum {best} in {time.time() - t0:.1f}s")

    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
