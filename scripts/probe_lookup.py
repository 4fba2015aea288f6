"""Point-lookup cost in isolation: CPU p50 of ``LakeTable.lookup`` per
merge-on-read chain depth and on copy-on-write, the number of manifests
in the chain, and where one lookup's CPU goes, step by step.

    python scripts/probe_lookup.py [--seed 1] [--lookups 300]

Builds a copy-on-write lake and a merge-on-read lake from the benchmark's
generator (``perfbench.gen``, the ``tail_index``/``mor_serve`` shape with
three tail epochs) in a temporary directory, outside any timing: drain
the base epochs, fold the merge-on-read base to chain depth 0, then
commit one tail epoch at a time and time lookups after each. Owns a
small Ray session (2 CPUs) for the commits; lookups run in the driver.

The split is mean CPU ms per lookup in each step, timed by wrapping the
names ``state/lake.py`` calls: ``manifest`` (finding and parsing the
head manifest), ``bucket`` (``stable_bucket``), ``reads`` (opening and
reading Parquet files), ``replay`` (merge-on-read replay steps),
``to_pandas`` (the answer's conversion) and ``other`` (the rest of
``lookup``). It runs in an older tree too (copy the script into its
``scripts/``), where the manifest step is ``load_manifest``.
"""

import argparse
import contextlib
import dataclasses
import os
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

STEPS = ("manifest", "bucket", "reads", "replay", "to_pandas")


def cpu_p50(lake, urls) -> float:
    ms = []
    for u in urls:
        c = time.process_time()
        lake.lookup(u)
        ms.append((time.process_time() - c) * 1e3)
    return float(np.median(ms))


@contextlib.contextmanager
def _timed(owner, name: str, step: str, spent: dict):
    """Replace ``owner.name`` by a wrapper adding its CPU time to
    ``spent[step]``; a missing name is left alone."""
    orig = getattr(owner, name, None)
    if orig is None:
        yield
        return

    def wrapper(*a, **kw):
        c = time.process_time()
        try:
            return orig(*a, **kw)
        finally:
            spent[step] += time.process_time() - c

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, orig)


def step_split(lake, urls) -> dict:
    """Mean CPU ms per lookup in each step (see the module docstring)."""
    import pyarrow.pandas_compat as pdc

    from chomper_ray.state import lake as lake_mod

    spent = dict.fromkeys(STEPS, 0.0)
    wraps = [(lake_mod.LakeTable, "_lookup_manifest", "manifest"),
             (lake_mod, "load_manifest", "manifest"),
             (lake_mod, "stable_bucket", "bucket"),
             (lake_mod, "fs_parquet_file", "reads"),
             (lake_mod, "fs_read_table", "reads"),
             (lake_mod, "_replay_step", "replay"),
             (pdc, "table_to_dataframe", "to_pandas")]
    if hasattr(lake_mod.LakeTable, "_lookup_manifest"):
        wraps.remove((lake_mod, "load_manifest", "manifest"))
    total = 0.0
    with contextlib.ExitStack() as stack:
        for owner, name, step in wraps:
            stack.enter_context(_timed(owner, name, step, spent))
        for u in urls:
            c = time.process_time()
            lake.lookup(u)
            total += time.process_time() - c
    out = {k: round(v / len(urls) * 1e3, 3) for k, v in spent.items()}
    out["other"] = round((total - sum(spent.values())) / len(urls) * 1e3, 3)
    return out


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
    from chomper_ray.state.lake import LakeTable, committed_epochs

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
            out[f"{name}_manifests"] = len(committed_epochs(root))
            out[f"{name}_split_ms"] = step_split(lake, urls)
    ray.shutdown()
    shutil.rmtree(work)
    print(out)


if __name__ == "__main__":
    main()
