"""Bytes a lake writes per event, by file kind and by column.

    python scripts/probe_bytes.py [--seed 1] [--tail 3]

Builds a copy-on-write and a merge-on-read lake from ``perfbench.gen``
inputs (the ``tail_index``/``mor_serve`` shape) in a temporary
directory, commits ``--tail`` epochs one poll at a time (merge-on-read
folds its chains before and after), and counts every file the tail adds
per tail event: by kind (snapshot, change events, delta, fold, manifest)
and, for Parquet, by column chunk, the rest being the footer. One JSON
line per storage kind; owns a small Ray session (2 CPUs).
"""

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import pyarrow.parquet as pq

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])


def file_kind(rel: str) -> str | None:
    name = rel.rsplit("/", 1)[-1]
    if rel.startswith("_manifest/"):
        return "manifest"
    if rel.startswith("changes/"):
        return "change_events"
    if not rel.startswith("data/"):
        return None
    if name.startswith("delta-"):
        return "delta"
    return "fold" if name.endswith("m.parquet") else "snapshot"


def files(root: Path) -> dict[str, int]:
    return {str(f.relative_to(root)): f.stat().st_size
            for f in root.rglob("*") if f.is_file()}


def account(root: Path, before: dict[str, int], events: int) -> dict:
    by_kind, by_col = defaultdict(int), defaultdict(lambda: defaultdict(int))
    for rel, size in files(root).items():
        kind = file_kind(rel)
        if rel in before or kind is None:
            continue
        by_kind[kind] += size
        if kind != "manifest":
            md = pq.ParquetFile(root / rel).metadata
            cols = by_col[kind]
            cols["(footer)"] += size
            for i in range(md.num_row_groups):
                for j in range(md.num_columns):
                    c = md.row_group(i).column(j)
                    col = c.path_in_schema.split(".")[0]
                    cols[col] += c.total_compressed_size
                    cols["(footer)"] -= c.total_compressed_size
    by_kind["total"] = sum(by_kind.values())

    def per_event(d):
        return {k: round(v / events, 1) for k, v in sorted(d.items())}

    return {"events": events, "bytes_per_event": per_event(by_kind),
            "columns": {k: per_event(v) for k, v in sorted(by_col.items())}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--tail", type=int, default=3)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    from perfbench import gen
    from perfbench.workloads import NUM_PARTITIONS, SHAPES
    from chomper_ray.pipelines.cdc import run_cdc
    from chomper_ray.state.lake import LakeTable

    spec = SHAPES["tail_index"].spec
    spec = dataclasses.replace(spec, epochs=spec.base_epochs + args.tail)
    work = Path(tempfile.mkdtemp(prefix="probe_bytes_"))
    log = gen.generate(spec, args.seed, work / "in") / "log"
    ray.init(num_cpus=2, object_store_memory=256 << 20,
             include_dashboard=False, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    for kind, kw in (("cow", {}), ("mor", {"merge_on_read": True,
                                           "collect_changes": False})):
        root = work / kind
        run_cdc(log, root, num_partitions=NUM_PARTITIONS, drain=True,
                max_epochs=spec.base_epochs, lake_kwargs=kw)
        lake = LakeTable(root, **kw)
        if kw:
            lake.compact_deltas()
        before, events = files(root), 0
        for _ in range(args.tail):
            events += run_cdc(log, root, max_epochs=1,
                              lake_kwargs=kw).events_applied
        if kw:
            lake.compact_deltas()
        print(json.dumps({"kind": kind, "seed": args.seed,
                          **account(root, before, events)}))
    ray.shutdown()
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
