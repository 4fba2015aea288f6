"""Point-lookup cost in isolation: CPU p50 of ``LakeTable.lookup`` per
merge-on-read chain depth and on copy-on-write, plus a cProfile split of
where one lookup's time goes (Parquet opens and reads vs pandas work).

    python scripts/probe_lookup.py [--seed 1] [--lookups 300]

Builds a copy-on-write lake and a merge-on-read lake from the benchmark's
generator (``perfbench.gen``, the ``tail_index``/``mor_serve`` shape with
three tail epochs) in a temporary directory, outside any timing: drain
the base epochs, fold the merge-on-read base to chain depth 0, then
commit one tail epoch at a time and time lookups after each. Owns a
small Ray session (2 CPUs) for the commits; lookups run in the driver.
"""

import argparse
import cProfile
import dataclasses
import os
import pstats
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

# fs_read_schema: the schema-only open of earlier revisions, so the probe
# also splits a parent tree's lookups
READS = {"fs_parquet_file", "fs_read_table", "fs_read_schema"}


def cpu_p50(lake, urls) -> float:
    ms = []
    for u in urls:
        c = time.process_time()
        lake.lookup(u)
        ms.append((time.process_time() - c) * 1e3)
    return float(np.median(ms))


def profile_split(lake, urls) -> dict:
    """Shares of the lookups' total time: Parquet reads entered from
    outside ``state/fs.py`` (so a nested open is not counted twice), and
    pandas work (``to_pandas`` plus pandas calls made by ``lake.py``)."""
    prof = cProfile.Profile()
    prof.enable()
    for u in urls:
        lake.lookup(u)
    prof.disable()
    st = pstats.Stats(prof).stats
    total = sum(v[2] for v in st.values())
    reads = pandas = 0.0
    for (fname, _, func), (_, _, _, ct, callers) in st.items():
        if fname.endswith("state/fs.py") and func in READS:
            reads += sum(c[3] for k, c in callers.items()
                         if not k[0].endswith("state/fs.py"))
        elif func == "table_to_dataframe":
            pandas += ct
        elif "/pandas/" in fname:
            pandas += sum(c[3] for k, c in callers.items()
                          if k[0].endswith("state/lake.py"))
    return {"reads_share": round(reads / total, 3),
            "pandas_share": round(pandas / total, 3)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lookups", type=int, default=300)
    args = ap.parse_args()

    import ray
    import ray.data as rd

    from perfbench import gen
    from perfbench.workloads import NUM_PARTITIONS, SHAPES
    from chomper_ray.pipelines.cdc import run_cdc
    from chomper_ray.state.lake import LakeTable

    tail = 3
    spec = SHAPES["mor_serve"].spec
    spec = dataclasses.replace(spec, epochs=spec.base_epochs + tail)
    work = Path(tempfile.mkdtemp(prefix="probe_lookup_"))
    log = gen.generate(spec, args.seed, work / "in") / "log"
    ray.init(num_cpus=2, object_store_memory=256 << 20,
             include_dashboard=False, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    rng = np.random.default_rng(args.seed)
    urls = [gen.url_of(int(i)) for i in rng.integers(
        0, spec.n_urls, args.lookups)]
    out = {"cpus": os.cpu_count(), "lookups": args.lookups}
    for kind, kw in (("cow", {}), ("mor", {"merge_on_read": True,
                                           "collect_changes": False})):
        root = work / kind
        run_cdc(log, root, num_partitions=NUM_PARTITIONS, drain=True,
                max_epochs=spec.base_epochs, lake_kwargs=kw)
        lake = LakeTable(root, **kw)
        if kind == "mor":
            lake.compact_deltas()
        for depth in range(tail + 1):
            if depth:
                run_cdc(log, root, max_epochs=1, lake_kwargs=kw)
            if kind == "cow" and depth != tail:
                continue
            lake.lookup(urls[0])  # warm imports and the manifest path
            name = "cow" if kind == "cow" else f"mor_depth{depth}"
            out[f"{name}_cpu_p50_ms"] = round(cpu_p50(lake, urls), 3)
            if kind == "cow" or depth == 1:
                out[f"{name}_profile"] = profile_split(lake, urls)
    ray.shutdown()
    shutil.rmtree(work)
    print(out)


if __name__ == "__main__":
    main()
