"""Text-index maintenance cost in isolation: the warm full build, the
per-poll refresh, what each segment holds and what a BM25 query costs.

    python scripts/probe_index.py [--seed 1] [--polls 9] [--answers FILE]

Builds a copy-on-write lake from the benchmark's generator
(``perfbench.gen``, the ``tail_index`` shape) in a temporary directory:
drains the base epochs, then times three full builds of a
``LakeTextIndex`` over it, each into a new root (the first one warms
the workers; the figure is the median of all three). Then commits one
tail epoch per poll and refreshes the last index after each, under the
benchmark's ``MaintenancePolicy`` (the index is compacted whenever it
reaches four live segments), and runs the benchmark's five BM25 queries
per poll. Owns a small Ray session (2 CPUs).

Prints one dict: the full-build walls, the refresh wall per poll, the
postings and rows read of every tail segment, the bytes of the files
each poll added under the lake root (as the benchmark's
``lake.bytes_written`` counts them), the index's bytes on disk at the
end and the BM25 p50 in ms. ``--answers FILE`` also writes, per
poll, the lake's ``snapshot_hash`` and manifest (without ``wall_s`` and
``events_in``, which follow timing and Ray's read blocks) and the
index's ``stats``, AND searches and full BM25 rankings, as JSON: two
trees whose files are equal maintain the same lake and index. It runs
in an older tree too (copy the script into its ``scripts/``).
"""

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

BUILDS = 3


def file_sizes(root: Path) -> dict:
    return {p: p.stat().st_size for p in root.rglob("*") if p.is_file()}


def answers(lake, idx, queries, rng) -> dict:
    from chomper_ray.state.lake import load_manifest

    man = load_manifest(lake.root)
    man.pop("wall_s", None)
    for ln in man.get("lineage", []):
        ln.pop("wall_s", None)
        ln.pop("events_in", None)
    st = idx.stats()
    out = {"snapshot_hash": lake.snapshot_hash(), "manifest": man,
           "stats": [st["n_docs"], st["sum_dl"], st["avgdl"]],
           "search": [], "bm25": []}
    for _ in range(8):
        qs = [queries[int(q)] for q in rng.choice(len(queries), 2,
                                                  replace=False)]
        out["search"].append([qs, [str(d) for d in idx.search(qs)]])
        r = idx.bm25(qs, k=None)
        out["bm25"].append([qs, [str(d) for d in r["doc"]],
                            [float(s) for s in r["score"]]])
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--polls", type=int, default=9)
    ap.add_argument("--answers", type=Path, default=None)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    from perfbench import gen
    from perfbench.workloads import (BM25_PER_ROUND, CYCLE,
                                     INDEX_PARTITIONS, NUM_PARTITIONS,
                                     SHAPES)
    from chomper_ray.pipelines.cdc import run_cdc
    from chomper_ray.state.index import LakeTextIndex
    from chomper_ray.state.lake import LakeTable
    from chomper_ray.state.policy import MaintenancePolicy

    spec = SHAPES["tail_index"].spec
    spec = dataclasses.replace(spec, epochs=spec.base_epochs + args.polls)
    work = Path(tempfile.mkdtemp(prefix="probe_index_"))
    inputs = gen.generate(spec, args.seed, work / "in")
    log = inputs / "log"
    queries = json.loads((inputs / "queries.json").read_text())
    ray.init(num_cpus=2, object_store_memory=256 << 20,
             include_dashboard=False, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    root = work / "lake"
    run_cdc(log, root, num_partitions=NUM_PARTITIONS, drain=True,
            max_epochs=spec.base_epochs)
    lake = LakeTable(root)
    builds = []
    for k in range(BUILDS):
        idx = LakeTextIndex(lake, work / f"index{k}",
                            num_partitions=INDEX_PARTITIONS)
        t = time.perf_counter()
        idx.refresh()
        builds.append(time.perf_counter() - t)
    policy = MaintenancePolicy(lake, targets=(idx,),
                               max_segments=CYCLE + 1, advise_every=0)
    rng = np.random.default_rng(args.seed)
    refresh_s, segments, lake_bytes, bm25_ms, dump = [], [], [], [], []
    for _ in range(args.polls):
        marks = {}

        def after_commit(commit, marks=marks):
            t = time.perf_counter()
            marks["applied"] = idx.refresh()["applied"]
            refresh_s.append(time.perf_counter() - t)
            policy.after_commit(commit)

        before = file_sizes(root)
        run_cdc(log, root, max_epochs=1, after_commit=after_commit)
        lake_bytes.append(sum(n for p, n in file_sizes(root).items()
                              if p not in before))
        segments += [{"postings": m["postings"],
                      "rows_scanned": m["rows_scanned"]}
                     for m in marks["applied"]]
        for _ in range(BM25_PER_ROUND):
            qs = [queries[int(q)] for q in rng.choice(len(queries), 3,
                                                      replace=False)]
            t = time.perf_counter()
            idx.bm25(qs, k=10)
            bm25_ms.append((time.perf_counter() - t) * 1e3)
        if args.answers is not None:
            dump.append(answers(lake, idx, queries, rng))
    out = {"cpus": os.cpu_count(), "polls": args.polls,
           "full_build_s": [round(x, 3) for x in builds],
           "full_build_median_s": round(statistics.median(builds), 3),
           "refresh_s": [round(x, 3) for x in refresh_s],
           "refresh_median_s": round(statistics.median(refresh_s), 3),
           "segments": segments,
           "lake_bytes_written": lake_bytes,
           "index_bytes": sum(file_sizes(idx.root).values()),
           "bm25_p50_ms": round(float(np.median(bm25_ms)), 3)}
    ray.shutdown()
    shutil.rmtree(work)
    if args.answers is not None:
        args.answers.write_text(json.dumps(dump, sort_keys=True))
    print(out)


if __name__ == "__main__":
    main()
