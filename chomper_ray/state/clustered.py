"""Incrementally maintained SORTED-RANGE and Z-ORDER layouts over a
``LakeTable`` — the last two write-once storage layouts
(state/output.py ``write_sorted`` / ``write_zorder``) brought under the
per-commit maintenance discipline of ``MaterializedAgg``
(state/matview.py), ``LakeTextIndex`` (state/index.py) and
``LakeANNIndex`` (state/annindex.py): after ``refresh()`` a range /
box scan with file-level data skipping answers over CURRENT lake
state, at a maintenance cost ∝ each commit's write amplification,
never the table.

Design = the ``_LsmSegmentIndex`` chain walk + IMMUTABLE routing
bounds (the LakeANNIndex centroid discipline). Range / z-bucket
boundaries are fitted once from a bounded sample at the first full
build, persisted to ``_BOUNDS.json``, and never change for the life of
the layout root. That immutability is what makes signed resolution
sound: an update's ``-1`` row carries the OLD version's values and so
routes to the SAME bucket as the base ``+1`` it cancels, while its
``+1`` lands wherever the new values route — per-bucket last-op-wins
by key (segments in chain order; within a segment ``-1`` sorts before
``+1``) therefore resolves both in-place and bucket-crossing updates
with one task per bucket and no cross-bucket exchange. Data drift
degrades file BALANCE (a performance concern, visible in ``stats()``),
never correctness; re-bounding = build a fresh layout root.

Reads prune at the file level exactly like ``read_range`` /
``read_box``: every segment's marker carries per-file stats (min/max
of the order column, or per-column boxes), a scan opens only
overlapping files, and pruning stays SOUND under deltas because a
``-1`` that would hide an in-window base row carries that row's own
values and is therefore in-window itself — its file must overlap.
When every overlapping file belongs to the newest FULL segment the
scan degenerates to a plain pruned read (no resolve, no shuffle);
``compact()`` folds all live segments back into one full segment to
restore that fast path — the classic LSM trade, chosen deliberately
for the 100-TB CDC regime where commits are small and scans want
data skipping.

The reference engine has no storage layouts at all (its exporter is a
per-row SQL loop — see SURVEY.md §2.4); this family exists for the
scale goal, paired with ``write_sorted``/``write_zorder`` for
immutable inputs and hash-verified against SQL by the
``cdc_sorted_scan`` / ``cdc_zorder_box`` driver queries.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.stages.merge import INTERNAL_DELETED
from chomper_ray.state import schema as schema_mod
from chomper_ray.state.index import _LsmSegmentIndex


def _norm_scalar(v):
    """Stats/bounds comparison domain (same contract as
    output.py:_jsonable/_cmp_key): numerics stay numeric as float64,
    everything else (strings, timestamps) uses str() — zero-padded ISO
    timestamp strings compare chronologically."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, float, np.integer, np.floating)):
        return float(v)
    return str(v)


def _norm_array(s: pd.Series) -> np.ndarray:
    """Vectorized ``_norm_scalar``: numeric dtypes -> float64 (ints
    below 2^53 exact — same tradeoff the layout stats already make),
    everything else -> str objects."""
    if pd.api.types.is_numeric_dtype(s) and \
            not pd.api.types.is_bool_dtype(s):
        return s.to_numpy(dtype=np.float64, na_value=np.nan)
    return s.astype(str).to_numpy(dtype=object)


def _bound_like(stored, bound):
    """Coerce a caller bound into the stored stat's domain
    (output.py:_cmp_key discipline)."""
    if isinstance(stored, (int, float)) and not isinstance(stored, bool):
        return float(bound)
    return str(bound)


def _check_no_nulls(s: pd.Series, col: str, what: str) -> None:
    n = int(s.isna().sum())
    if n:
        raise ValueError(
            f"{what}: route column {col!r} has {n} null value(s) — a "
            "null has no range/z-bucket and would corrupt file stats; "
            "drop or fill nulls upstream (same contract as write_sorted)")


def _col_eq(a: pd.Series, b: pd.Series) -> np.ndarray:
    """Elementwise equality with SQL-style null handling (null == null
    counts as equal here — we are testing 'content identical', not
    three-valued logic). Columns whose values don't support vectorized
    comparison (e.g. object cells holding arrays) conservatively
    compare unequal — cancellation is an optimization, never required
    for correctness."""
    try:
        eq = a.to_numpy() == b.to_numpy()
        if getattr(eq, "dtype", None) != np.dtype(bool):
            raise TypeError
    except Exception:
        return np.zeros(len(a), dtype=bool)
    an, bn = a.isna().to_numpy(), b.isna().to_numpy()
    return (eq & ~(an | bn)) | (an & bn)


def _cancel_unchanged(g: pd.DataFrame, key: str) -> pd.DataFrame:
    """Drop +1/−1 pairs whose projected content is identical — the
    copy-on-write noise filter (the derived-table family's 'events ∝
    actual change' discipline, state/derivedtable.py): a COW ingest
    commit rewrites whole lake partitions, so its signed diff carries
    every co-located UNTOUCHED row as a content-equal −1/+1 pair.
    Resolution-neutral by construction: dropping the pair leaves the
    key's older chain entry live, which is content-equal to the new
    +1 on every layout column. Keeps segment rows (and the set of
    touched buckets a consumer must re-read) proportional to the
    commit's real changes, not its write amplification."""
    ops = g["op"].to_numpy()
    if (ops == 1).all() or (ops == -1).all():
        return g
    plus = g[ops == 1]
    minus = g[ops == -1]
    if not (plus[key].is_unique and minus[key].is_unique):
        return g  # snapshot invariant violated — don't guess
    p = plus.set_index(key)
    m = minus.set_index(key)
    common = p.index.intersection(m.index)
    if not len(common):
        return g
    p, m = p.loc[common], m.loc[common]
    eq = np.ones(len(common), dtype=bool)
    for c in g.columns:
        if c in (key, "op"):
            continue
        eq &= _col_eq(p[c], m[c])
    cancel = set(common[eq])
    if not cancel:
        return g
    return g[~g[key].isin(cancel)]


def _resolve_frames(frames: list[pd.DataFrame], key: str) -> pd.DataFrame:
    """Per-bucket last-op-wins by key across segments in chain order
    (``_r`` = segment rank; within a segment -1 sorts before +1, so an
    in-place update keeps its new version)."""
    cat = pd.concat(frames, ignore_index=True)
    cat = cat.sort_values([key, "_r", "op"], kind="stable") \
        .drop_duplicates(subset=[key], keep="last")
    return cat[cat["op"] == 1]


class _LakeClusteredLayout(_LsmSegmentIndex):
    """Shared machinery for maintained clustered layouts: immutable
    bounds, signed routed segments with per-file stats in the marker,
    stat-pruned per-bucket resolution, compaction. Subclasses say how
    rows ROUTE (``_route``), what a file's STATS are (``_stats_of``),
    and how a query PRUNES (``_overlaps``) and FILTERS (``_residual``).
    """

    PART = "p"

    def __init__(self, lake, root, columns=None, num_partitions: int = 32,
                 sample_rows: int = 20_000):
        super().__init__(lake, root)
        self.key_col = lake.key
        self.columns = list(columns or [])
        self.num_partitions = int(num_partitions)
        self.sample_rows = int(sample_rows)

    # -- subclass hooks -----------------------------------------------------
    def _route_cols(self) -> list[str]:
        raise NotImplementedError

    def _fit(self, sample: pd.DataFrame) -> dict:
        raise NotImplementedError

    def _route(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        raise NotImplementedError

    def _stats_of(self, g: pd.DataFrame) -> dict:
        raise NotImplementedError

    def _overlaps(self, fmeta: dict, query) -> bool:
        raise NotImplementedError

    def _residual(self, df: pd.DataFrame, query) -> pd.DataFrame:
        raise NotImplementedError

    # -- columns / schema -----------------------------------------------------
    def _layout_cols(self) -> list[str]:
        cols, seen = [], set()
        for c in [self.key_col, *self._route_cols(), *self.columns]:
            if c not in seen:
                cols.append(c)
                seen.add(c)
        return cols

    def _target_schema(self, out_cols: list[str]) -> pa.Schema:
        cur = self.lake.current_schema()
        if cur is None:
            raise ValueError("lake has no committed schema yet")
        missing = [c for c in out_cols if c not in cur.names]
        if missing:
            raise ValueError(
                f"columns {missing} not in the lake schema {cur.names}")
        return pa.schema([cur.field(c) for c in out_cols])

    # -- immutable bounds -------------------------------------------------------
    def _bounds_path(self) -> Path:
        return self.root / "_BOUNDS.json"

    def bounds(self) -> dict | None:
        p = self._bounds_path()
        return json.loads(p.read_text()) if p.exists() else None

    def _ensure_bounds(self, files: list[str]) -> dict:
        b = self.bounds()
        if b is not None:
            return b
        # first full build: fit on a driver-side sample (bounded by
        # sample_rows, like LakeANNIndex centroid training); ROUTING
        # runs distributed
        rcols = self._route_cols()
        frames, need = [], self.sample_rows
        for f in files:
            t = pq.read_table(f, columns=[*rcols, INTERNAL_DELETED])
            df = t.to_pandas()
            df = df[~df[INTERNAL_DELETED].astype(bool)][rcols]
            if len(df) > need:
                idx = np.linspace(0, len(df) - 1, need).astype(int)
                df = df.iloc[idx]
            if len(df):
                frames.append(df)
            need -= len(df)
            if need <= 0:
                break
        samp = pd.concat(frames, ignore_index=True) if frames \
            else pd.DataFrame({c: pd.Series(dtype="object") for c in rcols})
        for c in rcols:
            _check_no_nulls(samp[c], c, type(self).__name__)
        b = self._fit(samp)
        tmp = self.root / f"._BOUNDS.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(b))
        os.replace(tmp, self._bounds_path())
        return b

    # -- segment construction -----------------------------------------------------
    def _signed_ds(self, new_files: list[str], old_files: list[str],
                   bounds: dict, layout_schema: pa.Schema):
        """Signed layout rows over LIVE rows of BOTH file sets in one
        read. op (+1 new / −1 old) derives per-row from each block's
        source path — one read instead of a two-branch ``union``, which
        can livelock Ray's streaming executor at large-segment scale
        (see _LsmSegmentIndex). Schema differences across an
        evolution commit (missing value columns, int widening) are
        handled by reading with an explicit target schema: the scanner
        null-fills absent fields and casts per file, and the read is
        still pruned to exactly those fields."""
        import ray.data as rd

        need = self._layout_cols()
        for side in (new_files, old_files):
            if not side:
                continue
            avail = set(pq.read_schema(side[0]).names)
            missing_r = [c for c in self._route_cols() if c not in avail]
            if missing_r:
                raise ValueError(
                    f"{type(self).__name__}: route column(s) {missing_r} "
                    f"absent from lake files (schema evolution added "
                    "them later?) — route columns must exist from the "
                    "first commit the layout covers")
        assert not (set(new_files) & set(old_files))  # sign by path
        signs = {f: 1 for f in new_files}
        signs.update({f: -1 for f in old_files})
        read_schema = pa.schema(
            list(self._target_schema(need))
            + [pa.field(INTERNAL_DELETED, pa.bool_())])
        route, rcols = self._route, self._route_cols()
        myname = type(self).__name__

        def prep(df: pd.DataFrame) -> pa.Table:
            op_rows = df["path"].map(signs).astype("int8")
            df = df[~df[INTERNAL_DELETED].astype(bool)]
            op_rows = op_rows[df.index]
            for c in rcols:
                _check_no_nulls(df[c], c, myname)
            out = df[need].copy()
            out["op"] = op_rows.to_numpy()
            out["_pb"] = (route(df, bounds).astype(np.int32) if len(df)
                          else np.empty(0, np.int32))
            return schema_mod.conform(
                pa.Table.from_pandas(out, preserve_index=False),
                layout_schema)

        return rd.read_parquet(list(signs), schema=read_schema,
                               include_paths=True) \
            .map_batches(prep, batch_format="pandas")

    def _sort_frame(self, g: pd.DataFrame) -> pd.DataFrame:
        return g

    def _write_segment(self, cid: int, new_files: list[str],
                       old_files: list[str], full: bool) -> dict:
        import ray.data as rd

        seg_dir = self.root / (f"seg-{cid:06d}-full" if full
                               else f"seg-{cid:06d}")
        seg_dir.mkdir(parents=True, exist_ok=True)
        segs, part = str(seg_dir), self.PART
        files_meta: list[dict] = []
        rows_written = rows_delta = 0
        if new_files or old_files:
            bounds = self._ensure_bounds(new_files or old_files)
            layout_schema = pa.schema(
                list(self._target_schema(self._layout_cols()))
                + [pa.field("op", pa.int8()), pa.field("_pb", pa.int32())])
            stats_of, sort_frame = self._stats_of, self._sort_frame

            key_col = self.key_col

            def write_part(g: pd.DataFrame) -> pd.DataFrame:
                pid = int(g["_pb"].iloc[0])
                g = sort_frame(_cancel_unchanged(g.drop(columns=["_pb"]),
                                                 key_col))
                d = Path(segs) / f"{part}={pid:05d}"
                d.mkdir(parents=True, exist_ok=True)
                tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
                # no pandas metadata: per-file metadata differs and
                # defeats Ray's schema dedup on multi-file reads
                pq.write_table(pa.Table.from_pandas(
                    g, preserve_index=False)
                    .replace_schema_metadata(None), tmp)
                os.replace(tmp, d / "part.parquet")
                (d / "_SUCCESS").touch()
                row = {"pid": pid, "rows": len(g),
                       "delta": int(g["op"].sum())}
                row.update(stats_of(g))
                return pd.DataFrame([row])

            ds = self._signed_ds(new_files, old_files, bounds,
                                 layout_schema)
            meta = ds.groupby("_pb").map_groups(
                write_part, batch_format="pandas").to_pandas()
            for _, r in meta.iterrows():
                if int(r["rows"]) == 0:
                    # every row of this bucket was a content-equal
                    # COW pair — nothing changed here; drop the empty
                    # file so readers (and shards_touched_since) never
                    # see the bucket as touched
                    shutil.rmtree(Path(segs) / f"{part}={int(r['pid']):05d}",
                                  ignore_errors=True)
                    continue
                fm = {k: (int(r[k]) if k in ("pid", "rows", "delta")
                          else _norm_scalar(r[k])) for k in meta.columns}
                files_meta.append(fm)
            if len(meta):
                rows_written = int(meta["rows"].sum())
                rows_delta = int(meta["delta"].sum())
        marker = {"cid": int(cid), "full": bool(full),
                  "files": sorted(files_meta, key=lambda f: f["pid"]),
                  "rows_written": rows_written, "rows_delta": rows_delta}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        return marker

    # -- reads ----------------------------------------------------------------
    def stats(self) -> dict:
        live = self._live_segments()
        return {"rows": sum(s.get("rows_delta", 0) for s in live),
                "segments": len(live),
                "files": sum(len(s.get("files", [])) for s in live)}

    def _read(self, query, columns=None):
        """(Dataset, files_read, files_total) over current lake state,
        file-pruned by the query; one resolve task per bucket unless
        every overlapping file sits in the newest full segment (then a
        plain pruned scan)."""
        import ray.data as rd

        live = self._live_segments()
        lcols = self._layout_cols()
        out_cols = list(columns) if columns is not None else lcols
        unknown = [c for c in out_cols if c not in lcols]
        if unknown:
            raise ValueError(f"columns {unknown} not in layout columns "
                             f"{lcols}")
        # the residual filter and resolution need route/key columns even
        # if the caller projected them out — read, filter, then project
        # (the read_range columns-union discipline)
        target = self._target_schema(out_cols)
        kept: list[tuple[int, str, dict]] = []   # (rank, dir, fmeta)
        n_total = 0
        for rank, seg in enumerate(live):
            for f in seg.get("files", []):
                n_total += 1
                if query is None or self._overlaps(f, query):
                    kept.append((rank, seg["dir"], f))
        if not kept:
            return rd.from_arrow(target.empty_table()), 0, n_total
        n_read = len(kept)
        key, part, residual = self.key_col, self.PART, self._residual
        fast = all(rank == 0 for rank, _, _ in kept) and live[0].get("full")
        if fast:
            files = [str(Path(d) / f"{part}={f['pid']:05d}"
                         / "part.parquet") for _, d, f in kept]

            def scan(df: pd.DataFrame) -> pa.Table:
                if query is not None:
                    df = residual(df, query)
                return schema_mod.conform(
                    pa.Table.from_pandas(df[out_cols],
                                         preserve_index=False), target)

            ds = rd.read_parquet(files, partitioning=None) \
                .map_batches(scan, batch_format="pandas")
            return ds, n_read, n_total

        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, d, f in kept:
            plan.setdefault(int(f["pid"]), []).append(
                (rank, str(Path(d) / f"{part}={f['pid']:05d}"
                           / "part.parquet")))

        def resolve(batch: pa.Table) -> pa.Table:
            outs = []
            for pid in batch["pid"].to_pylist():
                frames = []
                for rank, f in plan[int(pid)]:
                    t = pq.read_table(f).to_pandas()
                    if len(t):
                        frames.append(t.assign(_r=rank))
                if not frames:
                    continue
                cat = _resolve_frames(frames, key)
                if query is not None:
                    cat = residual(cat, query)
                if len(cat):
                    outs.append(schema_mod.conform(
                        pa.Table.from_pandas(cat[out_cols],
                                             preserve_index=False),
                        target))
            return pa.concat_tables(outs) if outs else target.empty_table()

        pids = sorted(plan)
        ds = (rd.from_arrow(pa.table({"pid": pa.array(pids,
                                                      type=pa.int32())}))
              .repartition(len(pids))
              .map_batches(resolve, batch_format="pyarrow"))
        return ds, n_read, n_total

    # -- maintenance ----------------------------------------------------------
    def compact(self) -> dict:
        """Fold all live segments into one full segment at the newest
        applied cid (one Ray task per bucket), then drop superseded
        segment dirs — bounded by the layout size; run on the
        compaction cadence, not per commit."""
        import ray.data as rd

        segs = self._segments()
        if not segs:
            return {"compacted": False}
        live = self._live_segments()
        if len(live) == 1 and live[0].get("full"):
            # already compact — but a crash between a previous compact's
            # marker write and its cleanup can leave superseded dirs;
            # sweep them here so dead segments never accumulate
            for s in segs:
                if s["dir"] != live[0]["dir"]:
                    shutil.rmtree(s["dir"], ignore_errors=True)
            return {"compacted": False}
        cid = segs[-1]["cid"]
        seg_dir = self.root / f"seg-{cid:06d}-full"
        seg_dir.mkdir(parents=True, exist_ok=True)
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(live):
            for f in seg.get("files", []):
                plan.setdefault(int(f["pid"]), []).append(
                    (rank, str(Path(seg["dir"])
                               / f"{self.PART}={f['pid']:05d}"
                               / "part.parquet")))
        key, out_dir = self.key_col, str(seg_dir)
        part, stats_of = self.PART, self._stats_of
        sort_frame = self._sort_frame
        files_meta: list[dict] = []
        rows_written = 0
        if plan:
            # meta rides back as one JSON string per rewritten bucket so
            # every task emits the same (single string column) schema
            # whether or not its buckets resolved to zero live rows
            def rewrite(batch: pa.Table) -> pa.Table:
                rows = []
                for pid in batch["pid"].to_pylist():
                    frames = []
                    for rank, f in plan[int(pid)]:
                        t = pq.read_table(f).to_pandas()
                        if len(t):
                            frames.append(t.assign(_r=rank))
                    if not frames:
                        continue
                    g = _resolve_frames(frames, key).drop(columns=["_r"])
                    if not len(g):
                        continue
                    g = sort_frame(g)
                    d = Path(out_dir) / f"{part}={int(pid):05d}"
                    d.mkdir(parents=True, exist_ok=True)
                    tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
                    pq.write_table(pa.Table.from_pandas(
                        g, preserve_index=False)
                        .replace_schema_metadata(None), tmp)
                    os.replace(tmp, d / "part.parquet")
                    (d / "_SUCCESS").touch()
                    row = {"pid": int(pid), "rows": len(g),
                           "delta": len(g)}
                    row.update(stats_of(g))
                    rows.append(json.dumps(row))
                return pa.table({"meta": pa.array(rows, type=pa.string())})

            pids = sorted(plan)
            meta = (rd.from_arrow(pa.table({"pid": pa.array(
                        pids, type=pa.int32())}))
                    .repartition(len(pids))
                    .map_batches(rewrite, batch_format="pyarrow")
                    .to_pandas())
            files_meta = [json.loads(s) for s in meta["meta"]] \
                if len(meta) else []
            rows_written = sum(f["rows"] for f in files_meta)
        marker = {"cid": int(cid), "full": True,
                  "files": sorted(files_meta, key=lambda f: f["pid"]),
                  "rows_written": rows_written,
                  "rows_delta": rows_written}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        for s in segs:
            if s["dir"] != str(seg_dir):
                shutil.rmtree(s["dir"], ignore_errors=True)
        return {"compacted": True, "rows": rows_written}


class LakeSortedLayout(_LakeClusteredLayout):
    """Maintained range-partitioned sorted layout over one order
    column (the ``write_sorted`` data-skipping contract, kept in sync
    with lake commits). ``read_range(lo, hi)`` = SQL
    ``lo <= order_col < hi`` over the live LWW state, opening only
    overlapping files."""

    PART = "r"

    def __init__(self, lake, root, order_col: str, columns=None,
                 num_partitions: int = 32, sample_rows: int = 20_000):
        super().__init__(lake, root, columns=columns,
                         num_partitions=num_partitions,
                         sample_rows=sample_rows)
        self.order_col = order_col

    def _route_cols(self) -> list[str]:
        return [self.order_col]

    def _fit(self, sample: pd.DataFrame) -> dict:
        v = np.sort(_norm_array(sample[self.order_col]))
        qs = np.linspace(0, 1, self.num_partitions + 1)[1:-1]
        cuts = (np.unique(v[(qs * (len(v) - 1)).astype(int)]).tolist()
                if len(v) else [])
        kind = "num" if v.dtype == np.float64 else "str"
        return {"order_col": self.order_col, "kind": kind, "cuts": cuts}

    def _route(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        v = _norm_array(df[self.order_col])
        cuts = np.asarray(bounds["cuts"],
                          dtype=np.float64 if bounds["kind"] == "num"
                          else object)
        if not len(cuts):
            return np.zeros(len(df), dtype=np.int32)
        return np.searchsorted(cuts, v, side="right").astype(np.int32)

    def _sort_frame(self, g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(self.order_col, kind="stable")

    def _stats_of(self, g: pd.DataFrame) -> dict:
        if not len(g):
            # fully-canceled COW bucket: the meta row is dropped (and
            # its file deleted) driver-side, but the task must still
            # emit the stats columns so every group shares one schema
            return {"min": float("nan"), "max": float("nan")}
        v = _norm_array(g[self.order_col])
        return {"min": _norm_scalar(v.min()), "max": _norm_scalar(v.max())}

    def _overlaps(self, fmeta: dict, query) -> bool:
        lo, hi = query
        if lo is not None:
            a, b = fmeta["max"], _bound_like(fmeta["max"], lo)
            if a < b:
                return False
        if hi is not None:
            a, b = fmeta["min"], _bound_like(fmeta["min"], hi)
            if a >= b:
                return False
        return True

    def _residual(self, df: pd.DataFrame, query) -> pd.DataFrame:
        lo, hi = query
        v = _norm_array(df[self.order_col])
        isnum = v.dtype == np.float64
        m = np.ones(len(df), dtype=bool)
        if lo is not None:
            m &= v >= (float(lo) if isnum else str(lo))
        if hi is not None:
            m &= v < (float(hi) if isnum else str(hi))
        return df[m]

    def read_range(self, lo=None, hi=None, columns=None):
        query = (lo, hi) if (lo is not None or hi is not None) else None
        return self._read(query, columns=columns)


class LakeZorderLayout(_LakeClusteredLayout):
    """Maintained Z-ORDER clustered layout over several columns (the
    ``write_zorder`` multi-dimensional data-skipping contract under
    CDC). ``read_box(preds)`` takes ``{col: (lo, hi)}`` with
    ``lo <= col < hi`` semantics on ANY subset of the clustered
    columns; files prune on per-column min/max boxes."""

    PART = "z"

    def __init__(self, lake, root, cols, columns=None,
                 num_partitions: int = 32, bits: int = 10,
                 sample_rows: int = 20_000):
        super().__init__(lake, root, columns=columns,
                         num_partitions=num_partitions,
                         sample_rows=sample_rows)
        self.cols = list(cols)
        self.bits = int(bits)
        if self.bits * len(self.cols) > 50:
            raise ValueError("bits * len(cols) must be <= 50 so z-values "
                             "stay exact in JSON bounds")

    def _route_cols(self) -> list[str]:
        return self.cols

    def _fit(self, sample: pd.DataFrame) -> dict:
        n_buckets = (1 << self.bits) - 1
        qs = np.linspace(0, 1, n_buckets + 1)[1:-1]
        col_bounds, kinds = {}, {}
        for c in self.cols:
            v = np.sort(_norm_array(sample[c]))
            cuts = (np.unique(v[(qs * (len(v) - 1)).astype(int)]).tolist()
                    if len(v) else [])
            col_bounds[c] = cuts
            kinds[c] = "num" if v.dtype == np.float64 else "str"
        b = {"cols": self.cols, "bits": self.bits,
             "col_bounds": col_bounds, "kinds": kinds}
        z = np.sort(self._zvalue_frame(sample, b)) if len(sample) \
            else np.array([], dtype=np.uint64)
        fq = np.linspace(0, 1, self.num_partitions + 1)[1:-1]
        b["zcuts"] = (np.unique(z[(fq * (len(z) - 1)).astype(int)])
                      .astype(np.int64).tolist() if len(z) else [])
        return b

    def _zvalue_frame(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        z = np.zeros(len(df), dtype=np.uint64)
        bits = bounds["bits"]
        for ci, c in enumerate(self.cols):
            cuts = np.asarray(bounds["col_bounds"][c],
                              dtype=np.float64
                              if bounds["kinds"][c] == "num" else object)
            idx = (np.searchsorted(cuts, _norm_array(df[c]), side="right")
                   .astype(np.uint64) if len(cuts)
                   else np.zeros(len(df), dtype=np.uint64))
            for k in range(bits):
                z |= ((idx >> np.uint64(k)) & np.uint64(1)) \
                    << np.uint64(k * len(self.cols) + ci)
        return z

    def _route(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        z = self._zvalue_frame(df, bounds)
        zcuts = np.asarray(bounds["zcuts"], dtype=np.uint64)
        if not len(zcuts):
            return np.zeros(len(df), dtype=np.int32)
        return np.searchsorted(zcuts, z, side="right").astype(np.int32)

    def _sort_frame(self, g: pd.DataFrame) -> pd.DataFrame:
        b = self.bounds()
        if b is None:
            return g
        order = np.argsort(self._zvalue_frame(g, b), kind="stable")
        return g.iloc[order]

    def _stats_of(self, g: pd.DataFrame) -> dict:
        if not len(g):
            return {k: float("nan") for c in self.cols
                    for k in (f"min_{c}", f"max_{c}")}
        out = {}
        for c in self.cols:
            v = _norm_array(g[c])
            out[f"min_{c}"] = _norm_scalar(v.min())
            out[f"max_{c}"] = _norm_scalar(v.max())
        return out

    def _overlaps(self, fmeta: dict, query: dict) -> bool:
        for c, (lo, hi) in query.items():
            if lo is not None:
                a, b = fmeta[f"max_{c}"], _bound_like(fmeta[f"max_{c}"], lo)
                if a < b:
                    return False
            if hi is not None:
                a, b = fmeta[f"min_{c}"], _bound_like(fmeta[f"min_{c}"], hi)
                if a >= b:
                    return False
        return True

    def _residual(self, df: pd.DataFrame, query: dict) -> pd.DataFrame:
        m = np.ones(len(df), dtype=bool)
        for c, (lo, hi) in query.items():
            v = _norm_array(df[c])
            isnum = v.dtype == np.float64
            if lo is not None:
                m &= v >= (float(lo) if isnum else str(lo))
            if hi is not None:
                m &= v < (float(hi) if isnum else str(hi))
        return df[m]

    def read_box(self, preds: dict, columns=None):
        bad = [c for c in preds if c not in self.cols]
        if bad:
            raise ValueError(f"box predicate columns {bad} not among the "
                             f"clustered columns {self.cols}")
        query = {c: (lo, hi) for c, (lo, hi) in preds.items()
                 if lo is not None or hi is not None}
        return self._read(query or None, columns=columns)


class LakeKeyedBucketLayout(_LakeClusteredLayout):
    """Maintained hash-bucketed layout on a SECONDARY key — the layout
    family ``derived.LakeBucketLayout`` explicitly cannot serve (its
    partition-mirror trick needs the lake's own key; see its module
    docstring), closed with the signed-segment machinery: rows route by
    ``stable_bucket(bucket_col)`` — the same hash ``write_partitioned``
    uses, so a statically-bucketed dimension table co-partitions with
    this layout — and a row whose bucket column CHANGES resolves as -1
    in the old bucket / +1 in the new, exactly like an ANN
    cell-crossing update.

    What it buys under CDC:
    - ``lookup(values)``: secondary-key point lookup over live LWW
      state reading ≤ len(values) buckets × live segments files (the
      lake itself can only point-look-up its primary key).
    - ``join_bucketed(right_root, ...)``: map-only bucket join against
      any ``write_partitioned`` layout with the same key and partition
      count — join elision on a non-lake key that never stales.

    Hash buckets carry no value ordering, so there is no min/max
    pruning; pruning is by bucket id (exact for point/equi lookups).
    """

    PART = "b"

    def __init__(self, lake, root, bucket_col: str, columns=None,
                 num_partitions: int = 32):
        super().__init__(lake, root, columns=columns,
                         num_partitions=num_partitions)
        self.bucket_col = bucket_col

    # -- routing ---------------------------------------------------------------
    def _route_cols(self) -> list[str]:
        return [self.bucket_col]

    def _ensure_bounds(self, files: list[str]) -> dict:
        # hash routing needs no fitted bounds — persist the partition
        # count so the layout stays self-describing
        b = self.bounds()
        if b is not None:
            return b
        b = {"bucket_col": self.bucket_col,
             "num_partitions": self.num_partitions}
        tmp = self.root / f"._BOUNDS.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(b))
        os.replace(tmp, self._bounds_path())
        return b

    def _fit(self, sample):  # pragma: no cover - _ensure_bounds bypasses
        raise AssertionError("hash layout fits no bounds")

    def _route(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        from chomper_ray.stages.merge import stable_bucket

        return stable_bucket(df[self.bucket_col].to_numpy(),
                             bounds["num_partitions"]).astype(np.int32)

    def _sort_frame(self, g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values([self.bucket_col, self.key_col],
                             kind="stable")

    def _stats_of(self, g: pd.DataFrame) -> dict:
        return {}

    def _overlaps(self, fmeta: dict, query) -> bool:
        # query = {"pids": set, "values": list|None}
        return int(fmeta["pid"]) in query["pids"]

    def _residual(self, df: pd.DataFrame, query) -> pd.DataFrame:
        vals = query.get("values")
        if vals is None:
            return df
        return df[df[self.bucket_col].isin(vals)]

    # -- reads ----------------------------------------------------------------
    def lookup(self, values, columns=None):
        """Live rows whose ``bucket_col`` is in ``values`` —
        (Dataset, files_read, files_total), opening only the hashed
        buckets."""
        from chomper_ray.stages.merge import stable_bucket

        vals = list(values)
        # np.asarray WITHOUT forcing object: pd.util.hash_array hashes
        # an int64 array differently from the same ints boxed as
        # objects, and routing hashed the raw int64 column — forcing
        # object here would silently probe the wrong buckets
        pids = set(stable_bucket(np.asarray(vals),
                                 self.num_partitions).tolist())
        return self._read({"pids": pids, "values": vals},
                          columns=columns)

    def read_all(self, columns=None):
        return self._read(None, columns=columns)

    def join_bucketed(self, right_root: str | Path, right_key: str,
                      columns=None):
        """Map-only equi-join of the LIVE layout against a
        ``write_partitioned`` layout bucketed by the SAME key hash and
        partition count — one task per bucket, each resolving its
        signed segments then merging with the one right-side bucket
        file; no shuffle of either side. Inner join; right columns are
        suffixed ``_r`` on collision (pandas merge semantics)."""
        import ray.data as rd

        from chomper_ray.state.output import read_layout

        right_root = Path(right_root)
        lay = read_layout(right_root)
        if lay["num_partitions"] != self.num_partitions:
            raise ValueError(
                f"right layout has {lay['num_partitions']} partitions, "
                f"this layout {self.num_partitions} — bucket joins need "
                "identical counts")
        if lay["key"] != right_key:
            raise ValueError(f"right layout is keyed by {lay['key']!r}, "
                             f"not {right_key!r}")
        live = self._live_segments()
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(live):
            for f in seg.get("files", []):
                pid = int(f["pid"])
                plan.setdefault(pid, []).append(
                    (rank, str(Path(seg["dir"])
                               / f"{self.PART}={pid:05d}"
                               / "part.parquet")))
        key, left_on = self.key_col, self.bucket_col
        rroot = str(right_root)
        # typed empty join frame: left dtypes from the lake target
        # schema, right dtypes from one completed right bucket — every
        # task emits this schema when its buckets resolve to no matches
        rfiles = sorted(right_root.glob("p=*/part.parquet"))
        if not rfiles:
            raise FileNotFoundError(f"no right buckets under {right_root}")
        empty_join = (self._target_schema(self._layout_cols())
                      .empty_table().to_pandas()
                      .merge(pq.read_schema(rfiles[0]).empty_table()
                             .to_pandas(),
                             left_on=left_on, right_on=right_key,
                             how="inner", suffixes=("", "_r")))

        def join_pid(batch: pa.Table) -> pd.DataFrame:
            outs = []
            for pid in batch["pid"].to_pylist():
                frames = []
                for rank, f in plan.get(int(pid), []):
                    t = pq.read_table(f).to_pandas()
                    if len(t):
                        frames.append(t.assign(_r=rank))
                if not frames:
                    continue
                left = _resolve_frames(frames, key) \
                    .drop(columns=["_r", "op"])
                rf = Path(rroot) / f"p={int(pid):05d}" / "part.parquet"
                if not (rf.parent / "_SUCCESS").exists() or not len(left):
                    continue
                right = pq.read_table(rf).to_pandas()
                outs.append(left.merge(right, left_on=left_on,
                                       right_on=right_key, how="inner",
                                       suffixes=("", "_r")))
            if not outs:
                return empty_join.copy()
            return pd.concat(outs, ignore_index=True)[empty_join.columns]

        pids = sorted(plan)
        if not pids:
            return rd.from_arrow(pa.Table.from_pandas(
                empty_join, preserve_index=False))
        return (rd.from_arrow(pa.table({"pid": pa.array(
                    pids, type=pa.int32())}))
                .repartition(len(pids))
                .map_batches(join_pid, batch_format="pyarrow"))


def join_live(left: LakeKeyedBucketLayout, right: LakeKeyedBucketLayout,
              left_cols=None, right_cols=None):
    """Map-only equi-join of TWO per-commit-maintained keyed-bucket
    layouts on their bucket columns — the live x live streaming join.

    Classic join IVM materializes the join's rows and folds
    delta(A) |><| B + A |><| delta(B) per commit: the auxiliary state is
    O(|A |><| B|) and a hot join key amplifies every commit that touches
    it (the quadratic hazard). This takes the other classical road:
    keep BOTH sides co-bucketed under their own per-commit maintenance
    (each commit routes only its own rows — O(commit)), and make the
    join itself a per-bucket resolve-and-merge at read time — one Ray
    task per bucket that both sides populate, each walking the two
    layouts' signed segment chains and inner-merging the live rows.
    Always fresh at BOTH heads (delta-bearing merge-on-read included),
    no shuffle at any point: the "pay the routing per commit, join
    map-only forever" contract of ``bucket_join``, with both sides
    live.

    Requirements: identical ``num_partitions`` (the shared
    ``stable_bucket`` hash then co-locates equal keys). Join is INNER
    on ``left.bucket_col == right.bucket_col``; right columns whose
    name collides with a left output column are suffixed ``_r``.
    Returns ``(Dataset, n_buckets_joined, n_buckets_total)``.
    """
    import ray.data as rd

    for side in (left, right):
        if not isinstance(side, LakeKeyedBucketLayout):
            raise TypeError("join_live joins LakeKeyedBucketLayout "
                            f"instances, got {type(side).__name__}")
    if left.num_partitions != right.num_partitions:
        raise ValueError(
            f"left layout has {left.num_partitions} partitions, right "
            f"{right.num_partitions} — live bucket joins need identical "
            "counts")
    lcols = list(left_cols) if left_cols is not None \
        else left._layout_cols()
    rcols = list(right_cols) if right_cols is not None \
        else right._layout_cols()
    for cols, lay, what in ((lcols, left, "left"), (rcols, right, "right")):
        unknown = [c for c in cols if c not in lay._layout_cols()]
        if unknown:
            raise ValueError(f"{what} columns {unknown} not in layout "
                             f"columns {lay._layout_cols()}")
    # read-filter-project discipline: the merge needs both bucket
    # columns even if the caller projected them out
    lproj = list(dict.fromkeys([left.bucket_col, *lcols]))
    rproj = list(dict.fromkeys([right.bucket_col, *rcols]))
    lnames = set(lproj)
    rmap = {c: (f"{c}_r" if c in lnames else c) for c in rproj}
    if len(set(rmap.values())) != len(rmap):
        raise ValueError(f"right column rename collides: {rmap}")
    out_cols = lcols + [rmap[c] for c in rcols]
    if len(set(out_cols)) != len(out_cols):
        raise ValueError(f"duplicate output columns: {out_cols}")
    lsch = left._target_schema(lproj)
    rsch = right._target_schema(rproj)
    target = pa.schema(
        [lsch.field(c) for c in lcols]
        + [pa.field(rmap[c], rsch.field(c).type) for c in rcols])

    def plan_of(lay: LakeKeyedBucketLayout) -> dict:
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(lay._live_segments()):
            for f in seg.get("files", []):
                plan.setdefault(int(f["pid"]), []).append(
                    (rank, str(Path(seg["dir"])
                               / f"{lay.PART}={f['pid']:05d}"
                               / "part.parquet")))
        return plan

    lplan, rplan = plan_of(left), plan_of(right)
    pids = sorted(set(lplan) & set(rplan))
    n_total = len(set(lplan) | set(rplan))
    if not pids:
        return rd.from_arrow(target.empty_table()), 0, n_total
    lkey, rkey_out = left.bucket_col, rmap[right.bucket_col]
    lkey_col, rkey_col = left.key_col, right.key_col

    def resolve_side(plan_pid, key):
        frames = []
        for rank, f in plan_pid:
            t = pq.read_table(f).to_pandas()
            if len(t):
                frames.append(t.assign(_r=rank))
        if not frames:
            return None
        return _resolve_frames(frames, key).drop(columns=["_r", "op"])

    def join_pid(batch: pa.Table) -> pa.Table:
        outs = []
        for pid in batch["pid"].to_pylist():
            lcat = resolve_side(lplan[int(pid)], lkey_col)
            if lcat is None or not len(lcat):
                continue
            rcat = resolve_side(rplan[int(pid)], rkey_col)
            if rcat is None or not len(rcat):
                continue
            m = lcat[lproj].merge(
                rcat[rproj].rename(columns=rmap),
                left_on=lkey, right_on=rkey_out, how="inner")
            if len(m):
                outs.append(schema_mod.conform(
                    pa.Table.from_pandas(m[out_cols],
                                         preserve_index=False), target))
        return pa.concat_tables(outs) if outs else target.empty_table()

    ds = (rd.from_arrow(pa.table({"pid": pa.array(pids,
                                                  type=pa.int32())}))
          .repartition(len(pids))
          .map_batches(join_pid, batch_format="pyarrow"))
    return ds, len(pids), n_total


def _md5_32(vals) -> np.ndarray:
    """SQL-replayable 32-bit hash of each value: the first 8 hex chars
    of ``md5(str(v))`` as an integer — exactly DuckDB's
    ``('0x' || substr(md5(v), 1, 8))::UBIGINT``, so an oracle can
    replay shard routing and in-shard order with one window function.
    A per-row loop, deliberately: there is no vectorized md5 kernel in
    Arrow/numpy, and every call site is bounded by a commit's rows or
    one shard's rows inside a distributed task, never the corpus on the
    driver (~0.5 µs/row)."""
    import hashlib

    md5 = hashlib.md5
    out = np.fromiter(
        (int.from_bytes(md5(str(v).encode("utf-8")).digest()[:4], "big")
         for v in vals),
        dtype=np.int64, count=len(vals))
    return out


class LakeShuffledExport(_LakeClusteredLayout):
    """CDC-maintained deterministic global pseudo-shuffle of the live
    lake state — ``output.shuffled_export`` (the "shuffle the corpus
    once before training" step) kept in sync with lake commits instead
    of rebuilt per epoch.

    Routing: shard = ``_md5_32(key) % n_shards`` of the lake's OWN key
    column, so a row's shard never changes for the life of the key —
    an update's −1 always lands in the same shard file chain as the +1
    it cancels (no cross-shard moves, unlike value-routed layouts).
    Maintenance cost ∝ the commit's write amplification (signed rows of
    the diff only), never the corpus: at 100 TB a small commit touches
    a few shard-delta files, not the export.

    Read contract (``read_live``): every row carries ``shard`` and
    ``pos`` columns — ``pos`` = rank of ``(h, key)`` within the shard
    over LIVE rows — and the global shuffled order IS ``(shard, pos)``
    ascending; like ``read_shuffled``, the order contract is pinned to
    the columns, never to Ray block arrival order. The order is a pure
    function of the live key set: independent of ingest history,
    partitioning, cluster size, merge-on-read vs copy-on-write, and
    compaction (``compact()`` only restores the single-full-segment
    fast path; hash-verified + pinned by pytest).

    Chomper ancestry: the reference has no export/shuffle machinery at
    all (its exporter is a per-row SQL loop, chomper/exporters.py:4-20);
    this exists for the training-data regime the engine targets, and is
    hash-verified against one SQL window function over the LWW replay
    (driver query ``cdc_shuffled_export``).
    """

    PART = "s"

    def __init__(self, lake, root, columns=None, n_shards: int = 64):
        super().__init__(lake, root, columns=columns,
                         num_partitions=n_shards)
        # fail at construction, not first write: an already-persisted
        # export pins its shard count for life (re-routing would strand
        # rows in the wrong shard files)
        b = self.bounds()
        if b is not None and b["n_shards"] != self.num_partitions:
            raise ValueError(
                f"{self.root} already holds a {b['n_shards']}-shard "
                f"export — n_shards={self.num_partitions} would "
                "mis-route rows; use a fresh root or the original "
                "count")

    # -- routing ---------------------------------------------------------------
    def _route_cols(self) -> list[str]:
        return [self.key_col]

    def _ensure_bounds(self, files: list[str]) -> dict:
        # md5 routing needs no fitted bounds — persist the shard count
        # so the export stays self-describing (and immutable: resuming
        # with a different n_shards would mis-route rows)
        b = self.bounds()
        if b is not None:
            if b["n_shards"] != self.num_partitions:
                raise ValueError(
                    f"{self.root} already holds a {b['n_shards']}-shard "
                    f"export — n_shards={self.num_partitions} would "
                    "mis-route rows; use a fresh root or the original "
                    "count")
            return b
        b = {"key": self.key_col, "n_shards": self.num_partitions}
        tmp = self.root / f"._BOUNDS.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(b))
        os.replace(tmp, self._bounds_path())
        return b

    def _fit(self, sample):  # pragma: no cover - _ensure_bounds bypasses
        raise AssertionError("hash layout fits no bounds")

    def _route(self, df: pd.DataFrame, bounds: dict) -> np.ndarray:
        h = _md5_32(df[self.key_col].to_numpy())
        return (h % bounds["n_shards"]).astype(np.int32)

    def _sort_frame(self, g: pd.DataFrame) -> pd.DataFrame:
        # segment files are stored in shard order so the compacted
        # fast path can assign pos with one arange; h is recomputed at
        # read time (cheaper than widening every file by 8 bytes/row)
        h = _md5_32(g[self.key_col].to_numpy())
        return (g.assign(_h=h)
                .sort_values(["_h", self.key_col], kind="stable")
                .drop(columns=["_h"]))

    def _stats_of(self, g: pd.DataFrame) -> dict:
        return {}

    def _overlaps(self, fmeta: dict, query) -> bool:
        return query is None or int(fmeta["pid"]) in query

    def _residual(self, df: pd.DataFrame, query) -> pd.DataFrame:
        return df

    # -- reads ----------------------------------------------------------------
    def read_live(self, columns=None, start_shard: int = 0,
                  shards=None):
        """The maintained shuffled corpus as a Dataset with ``shard``
        and ``pos`` attached — global order = ``(shard, pos)`` asc,
        pinned to the columns (Ray does not preserve block order).
        ``start_shard`` skips finished shards for mid-epoch training
        resume, exactly like ``output.read_shuffled``; ``shards`` (a
        collection of shard ids) restricts the read to an explicit
        subset — the per-shard pull a checkpointing consumer makes.
        One resolve task per shard; a compacted export skips resolution
        (files are already live rows in ``(h, key)`` order)."""
        import ray.data as rd

        live = self._live_segments()
        lcols = self._layout_cols()
        out_cols = list(columns) if columns is not None else lcols
        unknown = [c for c in out_cols if c not in lcols]
        if unknown:
            raise ValueError(f"columns {unknown} not in layout columns "
                             f"{lcols}")
        want = None if shards is None else {int(s) for s in shards}
        target = pa.schema(
            list(self._target_schema(out_cols))
            + [pa.field("shard", pa.int64()), pa.field("pos", pa.int64())])
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(live):
            for f in seg.get("files", []):
                pid = int(f["pid"])
                if pid < start_shard or (want is not None
                                         and pid not in want):
                    continue
                plan.setdefault(pid, []).append(
                    (rank, str(Path(seg["dir"])
                               / f"{self.PART}={pid:05d}"
                               / "part.parquet")))
        if not plan:
            return rd.from_arrow(target.empty_table())
        key = self.key_col
        fast = len(live) == 1 and live[0].get("full")

        def emit(pid: int, g: pd.DataFrame) -> pa.Table:
            if not fast:
                h = _md5_32(g[key].to_numpy())
                g = (g.assign(_h=h)
                     .sort_values(["_h", key], kind="stable")
                     .drop(columns=["_h"]))
            g = g[out_cols].copy()
            g["shard"] = np.int64(pid)
            g["pos"] = np.arange(len(g), dtype=np.int64)
            return schema_mod.conform(
                pa.Table.from_pandas(g, preserve_index=False), target)

        def resolve(batch: pa.Table) -> pa.Table:
            outs = []
            for pid in batch["pid"].to_pylist():
                frames = []
                for rank, f in plan[int(pid)]:
                    t = pq.read_table(f).to_pandas()
                    if len(t):
                        frames.append(t.assign(_r=rank))
                if not frames:
                    continue
                g = (frames[0].drop(columns=["_r", "op"]) if fast
                     else _resolve_frames(frames, key))
                if len(g):
                    outs.append(emit(int(pid), g))
            return pa.concat_tables(outs) if outs else target.empty_table()

        pids = sorted(plan)
        return (rd.from_arrow(pa.table({"pid": pa.array(pids,
                                                        type=pa.int32())}))
                .repartition(len(pids))
                .map_batches(resolve, batch_format="pyarrow"))

    def shards_touched_since(self, cid: int) -> set[int]:
        """Shard ids whose segment chain gained rows from any applied
        lake commit with id > ``cid`` — the incremental-consumer
        contract: a downstream shard reader (training loop, packed
        export) re-reads ONLY these shards and keeps every other
        shard's bytes/examples verbatim. A full segment at cid' > cid
        (compaction or first build) reports every shard it holds —
        compaction rewrites files even though content is invariant, so
        a byte-level consumer must be told."""
        touched: set[int] = set()
        for seg in self._live_segments():
            if int(seg["cid"]) > cid:
                touched.update(int(f["pid"]) for f in seg.get("files", []))
        return touched

    def read_packed(self, seq_len: int, col: str = "text",
                    start_shard: int = 0, shards=None, model=None):
        """Per-shard tokenize-and-pack over the maintained shuffle —
        the packing step of the training pipeline (stages/text.py
        ``pack_sequences``) running on CDC-fresh data: each shard is an
        INDEPENDENT fixed-``seq_len`` example stream whose document
        order is the shard's shuffled ``(h, key)`` order. Emits one row
        per (document x example) overlap — ``key, shard, example_id,
        tok_lo, tok_hi, n_tokens`` with ``example_id`` dense per shard
        (identical span arithmetic to ``pack_sequences``; whitespace
        tokens).

        Per-shard (not global) example streams are the point: a commit
        perturbs only its own shards' examples — everything else is
        byte-stable (``shards_touched_since`` names the re-reads) —
        whereas one global stream would shift every example after the
        first touched document. SQL parity: ``SUM(n) OVER (PARTITION BY
        shard ORDER BY h, key)`` + ``generate_series`` (driver query
        ``cdc_packed_stream``).

        ``model`` (a ``stages.bpe.BpeModel``) switches the token
        budget from whitespace counts to REAL BPE token counts — the
        rank table is broadcast once and each shard task encodes its
        docs' distinct words through a memo (pytest-pinned; no SQL
        oracle for this path — the apply loop isn't expressible)."""
        import ray.data as rd

        L = int(seq_len)
        if L <= 0:
            raise ValueError("seq_len must be positive")
        if col not in self._layout_cols():
            raise ValueError(f"column {col!r} not in layout columns "
                             f"{self._layout_cols()} — pass it via "
                             "columns= at construction")
        live = self._live_segments()
        key = self.key_col
        key_dtype = self._target_schema([key]).field(key).type
        want = None if shards is None else {int(s) for s in shards}
        target = pa.schema([
            pa.field(key, key_dtype), pa.field("shard", pa.int64()),
            pa.field("example_id", pa.int64()),
            pa.field("ex_off", pa.int64()),
            pa.field("tok_lo", pa.int64()), pa.field("tok_hi", pa.int64()),
            pa.field("n_tokens", pa.int64())])
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(live):
            for f in seg.get("files", []):
                pid = int(f["pid"])
                if pid < start_shard or (want is not None
                                         and pid not in want):
                    continue
                plan.setdefault(pid, []).append(
                    (rank, str(Path(seg["dir"])
                               / f"{self.PART}={pid:05d}"
                               / "part.parquet")))
        if not plan:
            return rd.from_arrow(target.empty_table())
        fast = len(live) == 1 and live[0].get("full")
        mref = None
        if model is not None:
            import ray

            mref = ray.put((model.ranks(), model.pattern))

        def pack(pid: int, g: pd.DataFrame) -> pa.Table:
            if not fast:
                h = _md5_32(g[key].to_numpy())
                g = (g.assign(_h=h)
                     .sort_values(["_h", key], kind="stable")
                     .drop(columns=["_h"]))
            k = g[key].to_numpy()
            if mref is None:
                n = g[col].fillna("").str.count(r"\S+") \
                    .to_numpy(np.int64)
            else:
                import re

                import ray

                from chomper_ray.stages.bpe import encode_text

                ranks, pat = ray.get(mref)
                rx, cache = re.compile(pat), {}
                n = np.array([len(encode_text(t, ranks, rx, cache))
                              for t in g[col]], dtype=np.int64)
            ce = np.cumsum(n)
            cs = ce - n
            m = n > 0
            k, n, cs, ce = k[m], n[m], cs[m], ce[m]
            if not len(k):
                return target.empty_table()
            # span expansion — the pack_sequences arithmetic verbatim
            e0 = cs // L
            cnt = ((ce - 1) // L - e0 + 1).astype(np.int64)
            rep = np.repeat(np.arange(len(k)), cnt)
            ri = np.arange(int(cnt.sum())) \
                - np.repeat(np.cumsum(cnt) - cnt, cnt)
            eid = e0[rep] + ri
            return schema_mod.conform(pa.Table.from_pandas(pd.DataFrame({
                key: k[rep],
                "shard": np.int64(pid),
                "example_id": eid.astype("int64"),
                # where this doc's slice starts WITHIN the example —
                # sorting a shard by (example_id, ex_off) reconstructs
                # the exact token stream (the consumer's read order)
                "ex_off": (np.maximum(cs[rep], eid * L) - eid * L)
                .astype("int64"),
                "tok_lo": np.maximum(0, eid * L - cs[rep])
                .astype("int64"),
                "tok_hi": np.minimum(n[rep], (eid + 1) * L - cs[rep])
                .astype("int64"),
                "n_tokens": n[rep].astype("int64"),
            }), preserve_index=False), target)

        def resolve(batch: pa.Table) -> pa.Table:
            outs = []
            for pid in batch["pid"].to_pylist():
                frames = []
                for rank, f in plan[int(pid)]:
                    t = pq.read_table(f).to_pandas()
                    if len(t):
                        frames.append(t.assign(_r=rank))
                if not frames:
                    continue
                g = (frames[0].drop(columns=["_r", "op"]) if fast
                     else _resolve_frames(frames, key))
                if len(g):
                    outs.append(pack(int(pid), g))
            return pa.concat_tables(outs) if outs else target.empty_table()

        pids = sorted(plan)
        return (rd.from_arrow(pa.table({"pid": pa.array(pids,
                                                        type=pa.int32())}))
                .repartition(len(pids))
                .map_batches(resolve, batch_format="pyarrow"))


class StreamDrift(RuntimeError):
    """The export's content moved under a mid-epoch training resume:
    a lake commit touched shards the consumer has not read yet, so the
    remaining stream would mix two corpus states. Re-enter with
    ``allow_drift=True`` to accept the newer content, or finish the
    epoch from a ``branch()`` of the lake pinned at the old head."""


class PackedStreamConsumer:
    """Durable checkpointed consumption of the packed training stream
    (``LakeShuffledExport.read_packed``) — the trainer-side cursor
    discipline, the ``BusConsumer`` pattern applied to example streams.

    One shard at a time: ``batches()`` yields ``(shard, frame)`` with
    the frame in exact stream order (``example_id, ex_off``), pulling
    only that shard's segment chain (bounded work per step, no full-
    export read). The cursor (atomic JSON next to nothing else — pass
    any path) advances when the NEXT shard is requested, so a crash
    mid-shard re-delivers that shard: at-least-once, the standard
    trainer contract (a step that already consumed example N simply
    skips it on replay).

    Epoch freshness: the first ``batches()`` call pins the export's
    applied head commit. If the lake commits DURING the epoch and the
    export refreshes, resuming checks ``shards_touched_since(pinned)``
    against the shards still pending — touched-but-unread shards raise
    ``StreamDrift`` (the remaining stream would mix corpus states);
    commits that only touched already-consumed shards are harmless and
    re-pin silently. ``finish_epoch()`` resets the cursor and re-pins
    at the current head — the next data epoch trains on fresh content.
    ``compact()`` never drifts (same content, same head commit).
    """

    def __init__(self, export: LakeShuffledExport, cursor_path,
                 seq_len: int, col: str = "text", model=None):
        self.export = export
        self.path = Path(cursor_path)
        self.seq_len = int(seq_len)
        self.col = col
        self.model = model

    def _tok_fp(self) -> str:
        """Tokenizer fingerprint pinned by the cursor: a different
        merge table moves every example boundary."""
        if self.model is None:
            return "whitespace"
        import hashlib

        blob = json.dumps({"p": self.model.pattern,
                           "m": [list(m) for m in self.model.merges]})
        return "bpe:" + hashlib.md5(blob.encode()).hexdigest()[:16]

    def _doc_tokens(self, text) -> list[str]:
        import re

        t = text if isinstance(text, str) else ""
        if self.model is None:
            # MUST mirror read_packed's whitespace budget (str.count of
            # r"\S+") — a plain split(" ") would miscount newlines /
            # tabs / repeated spaces, which real extracted text has
            return re.findall(r"\S+", t)
        from chomper_ray.stages.bpe import encode_text

        if not hasattr(self, "_enc"):
            self._enc = (self.model.ranks(),
                         re.compile(self.model.pattern), {})
        ranks, rx, cache = self._enc
        return encode_text(t, ranks, rx, cache)

    # -- cursor ----------------------------------------------------------
    def state(self) -> dict | None:
        if self.path.exists():
            return json.loads(self.path.read_text())
        return None

    def _write(self, st: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps(st))
        os.replace(tmp, self.path)

    def _head_cid(self) -> int:
        ap = self.export.applied_commits()
        return max(ap) if ap else -1

    # -- consumption -----------------------------------------------------
    def examples(self, allow_drift: bool = False):
        """Like ``batches()`` but MATERIALIZED: yields ``(shard,
        frame)`` with one row per training example — ``example_id``,
        ``text`` (exactly ``seq_len`` whitespace tokens except a
        shard's final example), ``n_tokens`` — by joining the span
        table to the shard's live rows and slicing. Same cursor, same
        at-least-once contract; per-shard work is one bounded join +
        vectorized token slicing."""
        for s, spans in self.batches(allow_drift=allow_drift):
            if not len(spans):
                yield s, pd.DataFrame({
                    "example_id": pd.array([], dtype="int64"),
                    "text": pd.Series([], dtype="object"),
                    "n_tokens": pd.array([], dtype="int64")})
                continue
            key = self.export.key_col
            cols = [key] + ([self.col] if self.col != key else [])
            live = (self.export
                    .read_live(columns=cols, shards=[s])
                    .to_pandas())
            # a commit landing BETWEEN the span read and this live read
            # would silently mis-slice. Two guards: (a) head-commit
            # re-check — a rewrite that PRESERVES a doc's token count
            # (e.g. same-length text swap) passes the count check below
            # but still mixes corpus states; (b) per-doc token-count
            # check for the remaining races inside a commit window.
            head = self._head_cid()
            span_head = getattr(self, "_span_head", head)
            if head != span_head and not allow_drift:
                if s in self.export.shards_touched_since(int(span_head)):
                    raise StreamDrift(
                        f"shard {s}: commits landed between the span "
                        f"read (head {span_head}) and the text read "
                        f"(head {head}); re-enter examples() to "
                        "re-deliver the shard")
            toks = {k: self._doc_tokens(t)
                    for k, t in zip(live[key], live[self.col])}
            for k, n in zip(spans[key], spans["n_tokens"]):
                if len(toks.get(k, ())) != int(n):
                    raise StreamDrift(
                        f"shard {s} changed between span and text reads "
                        f"(doc {k!r}: {n} tokens expected); re-enter "
                        "examples() to re-deliver the shard")
            parts: dict[int, list[str]] = {}
            ntok: dict[int, int] = {}
            for r in spans.itertuples(index=False):
                seg = toks[getattr(r, key)][r.tok_lo:r.tok_hi]
                parts.setdefault(int(r.example_id), []).append(
                    " ".join(seg))
                ntok[int(r.example_id)] = \
                    ntok.get(int(r.example_id), 0) + len(seg)
            eids = sorted(parts)
            yield s, pd.DataFrame({
                "example_id": pd.array(eids, dtype="int64"),
                "text": [" ".join(parts[e]) for e in eids],
                "n_tokens": pd.array([ntok[e] for e in eids],
                                     dtype="int64")})

    def batches(self, allow_drift: bool = False):
        """Generator of ``(shard, pandas frame)`` from the cursor to
        the last shard, checkpointing between shards."""
        n_shards = self.export.num_partitions
        st = self.state()
        if st is None:
            st = {"seq_len": self.seq_len, "col": self.col,
                  "n_shards": n_shards, "tokenizer": self._tok_fp(),
                  "epoch_cid": self._head_cid(),
                  "next_shard": 0, "data_epochs_done": 0}
            self._write(st)
        for k, mine in (("seq_len", self.seq_len), ("col", self.col),
                        ("n_shards", n_shards),
                        ("tokenizer", self._tok_fp())):
            if st.get(k, mine) != mine:
                raise ValueError(
                    f"cursor {self.path} pins {k}={st[k]!r}, consumer "
                    f"was built with {mine!r} — examples would not "
                    "line up; use a fresh cursor")
        def check_drift(next_shard: int) -> None:
            # re-checked before EVERY shard read, not just at entry: a
            # refresh() landing while the generator is live would
            # otherwise silently mix two corpus states mid-epoch
            head = self._head_cid()
            if head == st["epoch_cid"]:
                return
            pending = set(range(next_shard, n_shards))
            hit = self.export.shards_touched_since(
                int(st["epoch_cid"])) & pending
            if hit and not allow_drift:
                raise StreamDrift(
                    f"commits after the pinned head {st['epoch_cid']} "
                    f"touched {len(hit)} unread shard(s) "
                    f"(e.g. {sorted(hit)[:5]}); pass allow_drift=True "
                    "to continue on the newer content")
            st["epoch_cid"] = head
            self._write(st)

        span_cols = [self.export.key_col, "shard", "example_id",
                     "ex_off", "tok_lo", "tok_hi", "n_tokens"]
        for s in range(int(st["next_shard"]), n_shards):
            check_drift(s)
            # pin the head the spans are read under — examples() uses
            # it to detect a commit racing its later text read
            self._span_head = int(st["epoch_cid"])
            raw = (self.export
                   .read_packed(self.seq_len, self.col, shards=[s],
                                model=self.model)
                   .to_pandas())
            if not len(raw.columns):
                # Ray drops the schema of a 0-row dataset on to_pandas
                raw = pd.DataFrame({c: [] for c in span_cols})
            frame = (raw.sort_values(["example_id", "ex_off"],
                                     kind="stable")
                     .reset_index(drop=True))
            yield s, frame
            st["next_shard"] = s + 1
            self._write(st)

    def finish_epoch(self) -> dict:
        """Close a fully-consumed epoch: reset to shard 0, re-pin at
        the current export head. Refuses mid-epoch."""
        st = self.state()
        if st is None:
            raise ValueError("no cursor yet — consume batches() first")
        if int(st["next_shard"]) < int(st["n_shards"]):
            raise ValueError(
                f"epoch not finished: next_shard={st['next_shard']} of "
                f"{st['n_shards']} — drain batches() first")
        st["epoch_cid"] = self._head_cid()
        st["next_shard"] = 0
        st["data_epochs_done"] = int(st["data_epochs_done"]) + 1
        self._write(st)
        return st
