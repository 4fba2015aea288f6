"""The three workloads. Each is a closed loop with one client, works on
inputs from ``gen.py`` and checks every answer against ``oracle.py``.

- ``drain_backlog``: rounds of one ``run_cdc(drain=True)`` over an
  8-epoch backlog into a fresh copy-on-write lake, then a burst of
  lookups on the drained lake.
- ``tail_index``: a drained base, then one tail epoch per round committed
  with ``run_cdc(drain=False)``; the after-commit hook refreshes a
  ``LakeTextIndex`` and runs a ``MaintenancePolicy`` over it; each
  commit is followed by lookups, boolean searches and BM25 searches.
- ``mor_serve``: the same tail on a merge-on-read lake; the hook
  refreshes a per-domain ``MaterializedAgg`` and the policy folds delta
  chains; each commit is followed by lookups and a view check.

A round is one commit (or one drain) plus its read burst. Rounds run
until ``seconds`` have passed and a whole number of ``min_rounds``-round
cycles is done.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from perfbench.gen import Spec
from perfbench.oracle import Oracle
from perfbench.trace import Tracer, cpu_since, session_cpu, tree_files

AND_SEARCHES_PER_ROUND = 2
BM25_PER_ROUND = 5
NUM_PARTITIONS = 16
INDEX_PARTITIONS = 8
# commits per maintenance cycle of the tail workloads: the policy folds
# delta chains at this depth and compacts the index at one segment more
CYCLE = 3


@dataclass(frozen=True)
class Shape:
    """Inputs and loop sizes of one workload."""

    spec: Spec
    setup_reps: int     # starting-state builds; setup_s takes the median
    lookups: int        # lookups per round
    min_rounds: int = 4  # also the maintenance cycle: runs stop on whole ones


# 33 tail epochs: whole cycles, more than a run commits
_TAIL = Spec(n_urls=2000, epochs=35, base_epochs=2, base_events=1500,
             tail_events=200, evolution_epoch=1, rows_per_file=1000)
SHAPES = {
    "drain_backlog": Shape(Spec(n_urls=5000, epochs=8, base_epochs=8,
                                base_events=1500, tail_events=0,
                                evolution_epoch=4, rows_per_file=750),
                           setup_reps=3, lookups=100),
    "tail_index": Shape(_TAIL, setup_reps=3, lookups=30, min_rounds=CYCLE),
    "mor_serve": Shape(_TAIL, setup_reps=3, lookups=30, min_rounds=CYCLE),
}
# every workload with all its checks, one round each, on small inputs
_SMOKE_TAIL = Spec(n_urls=600, epochs=6, base_epochs=2, base_events=500,
                   tail_events=60, evolution_epoch=1, rows_per_file=500)
SMOKE = {
    "drain_backlog": Shape(Spec(n_urls=1200, epochs=8, base_epochs=8,
                                base_events=300, tail_events=0,
                                evolution_epoch=4, rows_per_file=300),
                           setup_reps=1, lookups=20, min_rounds=1),
    "tail_index": Shape(_SMOKE_TAIL, setup_reps=1, lookups=20, min_rounds=1),
    "mor_serve": Shape(_SMOKE_TAIL, setup_reps=1, lookups=20, min_rounds=1),
}

# per-layer metrics every workload measures (name -> unit); a traced run
# prints these, and writes them to its trace file together with the
# metrics of the layers only its own workload exercises
PER_LAYER = {
    "events.read_us_per_event": "us", "extract.us_per_page": "us",
    "lake.stage_s": "s", "lake.merge_s": "s", "lake.commit_other_s": "s",
    "lake.partitions_touched": "count", "lake.rows_rewritten": "count",
    "lake.bytes_written": "bytes", "lake.files_written": "count",
    "lake.lookup_hi_ms": "ms",
    "ray.worker_cpu_s": "s", "ray.cpu_util": "ratio", "driver.cpu_s": "s",
    "trace.self_s": "s",
}
WORKLOAD_LAYERS = {
    "drain_backlog": {},
    "tail_index": {"index.refresh_s": "s", "index.compact_s": "s",
                   "index.segments_mean": "count",
                   "index.search_p50_ms": "ms", "index.search_hi_ms": "ms"},
    "mor_serve": {"lake.fold_s": "s", "lake.chain_depth_mean": "count",
                  "matview.refresh_s": "s"},
}


@dataclass
class Ctx:
    name: str
    shape: Shape
    seed: int
    seconds: float
    tracer: Tracer
    inputs: Path
    work: Path
    oracle: Oracle
    attempted: int = 0
    failed: int = 0
    events: int = 0
    setup_builds: list = field(default_factory=list)
    poll_s: list = field(default_factory=list)
    commit_s: list = field(default_factory=list)
    fresh_s: list = field(default_factory=list)
    lookup_ms: list = field(default_factory=list)
    lookup_cpu_ms: list = field(default_factory=list)
    search_ms: list = field(default_factory=list)
    acc: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    stored_ratio: float = 0.0
    peak_rss_mb: float = 0.0

    @property
    def log(self) -> Path:
        return self.inputs / "log"

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"MISMATCH {self.name}: {what}", file=sys.stderr)

    def add(self, key: str, v: float) -> None:
        self.acc[key] = self.acc.get(key, 0.0) + v

    def sample(self, key: str, v: float) -> None:
        self.samples.setdefault(key, []).append(v)


# -- checks against the oracle ---------------------------------------------
def _same_row(got: dict, exp: dict) -> bool:
    x = got.get("extra_score")
    if x is not None and isinstance(x, float) and math.isnan(x):
        x = None
    return (got["url"] == exp["url"] and got["text"] == exp["text"]
            and got["lang"] == exp["lang"]
            and int(got["fetch_status"]) == exp["fetch_status"]
            and pd.Timestamp(got["warc_ts"]).value // 1000 == exp["warc_ts"]
            and (None if x is None else float(x)) == exp["extra_score"])


def _lookup_ok(df: pd.DataFrame, exp: dict | None) -> bool:
    if exp is None:
        return len(df) == 0
    return len(df) == 1 and _same_row(df.iloc[0].to_dict(), exp)


def _bm25_ok(got: pd.DataFrame, top: list, scores: dict) -> bool:
    """Rank by rank, the returned score equals the oracle's k-th best
    score, and each returned doc's own oracle score equals it too (so a
    swap between docs tied at the cut is accepted, nothing else)."""
    docs, sc = got["doc"].tolist(), got["score"].tolist()
    if len(docs) != len(top) or len(set(docs)) != len(docs):
        return False
    return all(abs(s - es) <= 1e-6 and abs(scores.get(d, -1.0) - s) <= 1e-6
               for d, s, (_, es) in zip(docs, sc, top))


def final_check(ctx: Ctx, lake) -> None:
    """Every row of ``LakeTable.read()`` against the oracle's live rows,
    extracted text included."""
    with ctx.tracer.span("lake.read"):
        df = lake.read().to_pandas()
    live = ctx.oracle.live
    bad = [] if len(df) == len(live) else [f"{len(df)} rows != {len(live)}"]
    for row in df.to_dict("records"):
        exp = ctx.oracle.row(row["url"])
        if exp is None or not _same_row(row, exp):
            bad.append(row["url"])
    ctx.op(not bad, f"final read: {bad[:5]}")


def lookup_burst(ctx: Ctx, lake, rnd: int, recent: list[str]) -> None:
    """Half hot (urls of the newest epoch), two fifths any url ever
    written (live or tombstoned), a tenth urls that never existed."""
    rng = np.random.default_rng([ctx.seed, 7, rnd])
    seen = sorted(ctx.oracle.winner)
    n = ctx.shape.lookups
    n_recent, n_missing = n // 2, n // 10
    urls = [recent[i] for i in rng.integers(0, len(recent), n_recent)]
    urls += [seen[i] for i in rng.integers(
        0, len(seen), n - n_recent - n_missing)]
    urls += [f"https://news.example.com/missing/{rnd}-{i}"
             for i in range(n_missing)]
    for u in urls:
        with ctx.tracer.span("lake.lookup"):
            t, c = time.perf_counter(), time.process_time()
            df = lake.lookup(u)
            ctx.lookup_ms.append((time.perf_counter() - t) * 1e3)
            ctx.lookup_cpu_ms.append((time.process_time() - c) * 1e3)
        ctx.op(_lookup_ok(df, ctx.oracle.row(u)), f"lookup {u}")


def search_burst(ctx: Ctx, index, rnd: int) -> None:
    o = ctx.oracle
    rng = np.random.default_rng([ctx.seed, 11, rnd])
    nq = len(o.queries)
    for _ in range(AND_SEARCHES_PER_ROUND):
        qs = [int(q) for q in rng.choice(nq, 2, replace=False)]
        with ctx.tracer.span("index.search"):
            got = index.search([o.queries[q] for q in qs], mode="all")
        ctx.op(sorted(got.tolist()) == o.and_set(qs), f"search {qs}")
    for _ in range(BM25_PER_ROUND):
        qs = [int(q) for q in rng.choice(nq, 3, replace=False)]
        with ctx.tracer.span("index.bm25"):
            t = time.perf_counter()
            got = index.bm25([o.queries[q] for q in qs], k=10)
            ctx.search_ms.append((time.perf_counter() - t) * 1e3)
        ctx.op(_bm25_ok(got, *o.bm25(qs)), f"bm25 {qs}")


def _stored_ratio(ctx: Ctx, lake_root: Path) -> float:
    on_disk = sum(tree_files(lake_root).values())
    return on_disk / ctx.oracle.user_bytes()


def _timed_out(ctx: Ctx, t0: float, rounds: int) -> bool:
    """Stop only after whole maintenance cycles: lookup and search costs
    rise with chain depth or segment count until the policy folds, so a
    run that ended mid-cycle would weigh the depths differently."""
    return (rounds >= ctx.shape.min_rounds
            and rounds % ctx.shape.min_rounds == 0
            and time.perf_counter() - t0 >= ctx.seconds)


class _PollMeter:
    """Readings around one ``run_cdc`` call, outside its timed wall: the
    files it wrote under the lake root, driver CPU and, traced, the Ray
    session's CPU."""

    def __init__(self, ctx: Ctx, lake_root: Path):
        self.ctx, self.root = ctx, lake_root

    def __enter__(self):
        self.files = tree_files(self.root) if self.root.exists() else {}
        if self.ctx.tracer.on:
            self.wcpu = session_cpu()
        self.dcpu = _driver_cpu()
        return self

    def __exit__(self, *exc):
        ctx = self.ctx
        ctx.add("driver.cpu_s", _driver_cpu() - self.dcpu)
        if ctx.tracer.on:
            ctx.add("ray.worker_cpu_s", cpu_since(self.wcpu))
        after = tree_files(self.root)
        new = [p for p in after if p not in self.files]
        ctx.add("lake.files_written", len(new))
        ctx.add("lake.bytes_written", sum(after[p] for p in new))

    def commits(self, res) -> None:
        ctx = self.ctx
        for c in res.commits:
            # summed, because drain mode spreads its stage and merge
            # totals evenly over the epochs of the plan
            ctx.add("lake.stage_s", c.stage_s)
            ctx.add("lake.merge_s", c.merge_s)
            ctx.add("lake.partitions_touched", c.partitions_touched)
            ctx.add("lake.rows_rewritten",
                    sum(int(ln["rows"]) for ln in c.lineage))


def _driver_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_probes(ctx: Ctx) -> None:
    """Single-process read and extract over the workload's segments:
    the single-threaded baseline for the Ray session's figures."""
    from chomper_ray.functions.extract import extract_text_column
    from chomper_ray.sources import events

    files = [f for e in events.list_epochs(ctx.log)
             for f in events.epoch_files(ctx.log, e)]
    with ctx.tracer.span("probe.read"):
        t = time.perf_counter()
        tables = [pq.read_table(f) for f in files]
        read_s = time.perf_counter() - t
    n = sum(t.num_rows for t in tables)
    ctx.acc["events.read_us_per_event"] = read_s / n * 1e6
    pages = [h for t in tables for h in t["html"].to_pylist()
             if h is not None]
    with ctx.tracer.span("probe.extract"):
        t = time.perf_counter()
        extract_text_column(pages)
        ctx.acc["extract.us_per_page"] = \
            (time.perf_counter() - t) / len(pages) * 1e6


# -- drain_backlog -----------------------------------------------------------
def drain_backlog(ctx: Ctx) -> None:
    from chomper_ray.pipelines.cdc import run_cdc
    from chomper_ray.state.lake import LakeTable

    tr = ctx.tracer
    spec = ctx.shape.spec
    # set-up: the starting lake is empty; what is built is a warm session
    # (workers up, code paths imported), by a two-epoch drain
    for k in range(ctx.shape.setup_reps):
        t = time.perf_counter()
        with tr.span("setup.warmup"):
            run_cdc(ctx.log, ctx.work / f"warm{k}",
                    num_partitions=NUM_PARTITIONS, drain=True, max_epochs=2)
        ctx.setup_builds.append(time.perf_counter() - t)
        shutil.rmtree(ctx.work / f"warm{k}")
    for e in range(spec.epochs):
        ctx.oracle.apply_epoch(e)
    recent = ctx.oracle.urls_in(spec.epochs - 1)
    if tr.on:
        kernel_probes(ctx)

    t0 = time.perf_counter()
    rnd = 0
    lake_root = None
    while not _timed_out(ctx, t0, rnd):
        prev, lake_root = lake_root, ctx.work / f"lake{rnd}"
        with _PollMeter(ctx, lake_root) as meter, tr.span("cdc.run_cdc"):
            t = time.perf_counter()
            res = run_cdc(ctx.log, lake_root, num_partitions=NUM_PARTITIONS,
                          drain=True)
            wall = time.perf_counter() - t
        meter.commits(res)
        ctx.add("lake.commit_other_s",
                wall - sum(c.stage_s + c.merge_s for c in res.commits))
        for e in range(spec.epochs):
            ctx.op(e in res.epochs_run, f"drain round {rnd} epoch {e}")
        ctx.events += res.events_applied
        ctx.poll_s.append(wall)
        ctx.commit_s.append(wall)  # no hook: committed == fresh
        ctx.fresh_s.append(wall)
        lookup_burst(ctx, LakeTable(lake_root), rnd, recent)
        if prev is not None:
            shutil.rmtree(prev)
        rnd += 1
    ctx.peak_rss_mb = _peak_rss_mb()
    ctx.stored_ratio = _stored_ratio(ctx, lake_root)
    final_check(ctx, LakeTable(lake_root))


# -- tail_index / mor_serve --------------------------------------------------
def _domain_contrib(df: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({
        "domain": df["url"].str.split("/").str[2],
        "n_chars": df["text"].fillna("").str.len().astype("int64")})


def _derived(ctx: Ctx, lake, root: Path, mor: bool):
    from chomper_ray.state.index import LakeTextIndex
    from chomper_ray.state.matview import MaterializedAgg
    from chomper_ray.state.policy import MaintenancePolicy

    if mor:
        target = MaterializedAgg(lake, root / "view", _domain_contrib,
                                 group_cols=["domain"],
                                 value_cols=["n_chars"],
                                 read_columns=["url", "text"])
        policy = MaintenancePolicy(lake, targets=(target,),
                                   max_chain=CYCLE, advise_every=0)
    else:
        target = LakeTextIndex(lake, root / "index",
                               num_partitions=INDEX_PARTITIONS)
        # a compaction leaves one segment and each commit adds one, so
        # the policy compacts every CYCLE commits
        policy = MaintenancePolicy(lake, targets=(target,),
                                   max_segments=CYCLE + 1, advise_every=0)
    return target, policy


def _check_derived(ctx: Ctx, target, mor: bool) -> None:
    o = ctx.oracle
    if mor:
        with ctx.tracer.span("matview.view"):
            v = target.view()
        got = {d: (int(n), int(c)) for d, n, c in
               zip(v["domain"], v["n_live"], v["sum_n_chars"])}
        ctx.op(got == o.domain_view(), "domain view")
    else:
        with ctx.tracer.span("index.stats"):
            st = target.stats()
        ctx.op(st["n_docs"] == len(o.live),
               f"index n_docs {st['n_docs']} != {len(o.live)}")


def tail(ctx: Ctx, mor: bool) -> None:
    from chomper_ray.pipelines.cdc import run_cdc
    from chomper_ray.state.lake import LakeTable

    tr = ctx.tracer
    spec = ctx.shape.spec
    kw = {"merge_on_read": True, "collect_changes": False} if mor else {}
    base = list(range(spec.base_epochs))
    for k in range(ctx.shape.setup_reps):
        root = ctx.work / f"base{k}"
        t = time.perf_counter()
        with tr.span("setup.base"):
            run_cdc(ctx.log, root / "lake", num_partitions=NUM_PARTITIONS,
                    drain=True, max_epochs=len(base), lake_kwargs=kw)
            lake = LakeTable(root / "lake", **kw)
            if mor:  # the tail starts from a folded base, chain depth 0
                lake.compact_deltas()
            target, policy = _derived(ctx, lake, root, mor)
            target.refresh()
        ctx.setup_builds.append(time.perf_counter() - t)
        if k:
            shutil.rmtree(ctx.work / f"base{k - 1}")
    lake_root = root / "lake"
    for e in base:
        ctx.oracle.apply_epoch(e)
    if tr.on:
        kernel_probes(ctx)
        lake.compact_deltas = tr.wrap("lake.compact_deltas",
                                      lake.compact_deltas)
        if not mor:
            target.compact = tr.wrap("index.compact", target.compact)
    refresh_span = "matview.refresh" if mor else "index.refresh"
    marks: dict[str, float] = {}

    def after_commit(commit) -> None:
        marks["in"] = time.perf_counter()
        with tr.span(refresh_span):
            target.refresh()
        with tr.span("policy.after_commit"):
            policy.after_commit(commit)
        marks["out"] = time.perf_counter()

    t0 = time.perf_counter()
    rnd = 0
    for e in range(spec.base_epochs, spec.epochs):
        if _timed_out(ctx, t0, rnd):
            break
        marks.clear()
        with _PollMeter(ctx, lake_root) as meter, tr.span("cdc.run_cdc"):
            t = time.perf_counter()
            res = run_cdc(ctx.log, lake_root, max_epochs=1, lake_kwargs=kw,
                          after_commit=after_commit)
            wall = time.perf_counter() - t
        meter.commits(res)
        ok = res.epochs_run == [e] and "out" in marks
        ctx.op(ok, f"commit epoch {e}: {res.epochs_run}")
        if not ok:
            break
        ctx.events += res.events_applied
        ctx.poll_s.append(wall)
        ctx.commit_s.append(marks["in"] - t)
        ctx.fresh_s.append(marks["out"] - t)
        ctx.add("lake.commit_other_s",
                wall - (marks["out"] - marks["in"])
                - sum(c.stage_s + c.merge_s for c in res.commits))
        ctx.oracle.apply_epoch(e)
        if tr.on:
            if mor:
                chains = lake.delta_chain_lengths()
                ctx.sample("lake.chain_depth_mean",
                           sum(chains.values()) / NUM_PARTITIONS)
            else:
                ctx.sample("index.segments_mean", target.stats()["segments"])
        lookup_burst(ctx, lake, rnd, ctx.oracle.urls_in(e))
        if not mor:
            search_burst(ctx, target, rnd)
        _check_derived(ctx, target, mor)
        rnd += 1
        if rnd == ctx.shape.min_rounds:
            # storage after a fixed number of commits, so the figure does
            # not depend on how many rounds fit in the run
            ctx.stored_ratio = _stored_ratio(ctx, lake_root)
    ctx.peak_rss_mb = _peak_rss_mb()
    final_check(ctx, lake)


WORKLOADS = {
    "drain_backlog": drain_backlog,
    "tail_index": lambda ctx: tail(ctx, mor=False),
    "mor_serve": lambda ctx: tail(ctx, mor=True),
}


# -- metrics -------------------------------------------------------------
def _pct(xs: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), p))


def _hi(xs: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it."""
    return _pct(xs, max(50.0, 100.0 - 1000.0 / len(xs)))


def _per_round_p50(ctx: Ctx, xs: list[float]) -> float:
    """Median over rounds of each round's lookup p50: one noisy burst
    does not set the figure, and on a merge-on-read lake, where a round's
    lookups all see one chain depth (1, 2, 0 over a cycle), the figure is
    that of the middle depth, whichever depths a run happened to end on."""
    n = ctx.shape.lookups
    return statistics.median(_pct(xs[i:i + n], 50)
                             for i in range(0, len(xs), n))


def end_to_end(ctx: Ctx, ray_init_s: float) -> dict[str, tuple[float, str]]:
    """The metrics ``BENCHMARK.json`` bounds: set-up time, and figures the
    host's CPU steal moves little or not at all (CPU time of a one-thread
    operation, bytes, memory)."""
    return {
        "setup_s": (ray_init_s + statistics.median(ctx.setup_builds), "s"),
        "lookup_cpu_ms": (_per_round_p50(ctx, ctx.lookup_cpu_ms), "ms"),
        "write_bytes_per_event": (ctx.acc["lake.bytes_written"] / ctx.events,
                                  "bytes"),
        "stored_bytes_per_user_byte": (ctx.stored_ratio, "ratio"),
        "driver_peak_rss_mb": (ctx.peak_rss_mb, "MB"),
    }


def wall_figures(ctx: Ctx) -> dict[str, tuple[float, str]]:
    """Wall-clock figures: what a user waits for, printed by every run but
    not bounded, because on a shared host they follow the steal."""
    return {
        "ingest_events_per_s": (ctx.events / sum(ctx.poll_s), "events/s"),
        "commit_p50_s": (statistics.median(ctx.commit_s), "s"),
        "fresh_p50_s": (statistics.median(ctx.fresh_s), "s"),
        "lookup_p50_ms": (_per_round_p50(ctx, ctx.lookup_ms), "ms"),
    }


def per_layer(ctx: Ctx, cores: int) -> dict[str, tuple[float, str]]:
    """``PER_LAYER`` plus the workload's own layer metrics: per-poll
    means (a poll is one ``run_cdc`` call) of the per-layer sums."""
    polls = len(ctx.poll_s)
    tr = ctx.tracer
    acc = dict(ctx.acc)
    acc["lake.fold_s"] = tr.total("lake.compact_deltas")
    acc["index.compact_s"] = tr.total("index.compact")
    acc["index.refresh_s"] = tr.total("index.refresh")
    acc["matview.refresh_s"] = tr.total("matview.refresh")
    out = {}
    for name, unit in {**PER_LAYER, **WORKLOAD_LAYERS[ctx.name]}.items():
        if name in ("events.read_us_per_event", "extract.us_per_page"):
            v = acc.get(name, 0.0)
        elif name.endswith("_mean"):
            xs = ctx.samples.get(name, [])
            v = sum(xs) / len(xs) if xs else 0.0
        elif name == "lake.lookup_hi_ms":
            v = _hi(ctx.lookup_ms)
        elif name == "index.search_p50_ms":
            v = _pct(ctx.search_ms, 50) if ctx.search_ms else 0.0
        elif name == "index.search_hi_ms":
            v = _hi(ctx.search_ms) if ctx.search_ms else 0.0
        elif name == "ray.cpu_util":
            v = acc.get("ray.worker_cpu_s", 0.0) / (sum(ctx.poll_s) * cores)
        elif name == "trace.self_s":
            v = tr.self_s
        else:
            v = acc.get(name, 0.0) / polls
        out[name] = (float(v), unit)
    return out

