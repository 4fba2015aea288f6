"""Derived lake tables — lake→lake incremental CDC propagation.

A ``DerivedLakeTable`` maintains a downstream :class:`LakeTable` as a
row-level transform (map / filter / project) of an upstream lake — the
medallion-chaining primitive (bronze pages → silver clean docs →
gold rollups). The reference expresses derived tables as a FULL
re-feed: truncate the target (``PostgresTruncator``, reference
contrib/postgres.py:262-292) and re-run the whole source pipeline
through transform steps into another ``Upserter``. Here each upstream
COMMIT propagates as exactly one downstream commit whose cost is the
upstream commit's write amplification, never table size.

Per upstream manifest commit the maintenance step is:

1. ``plan_commit_diff`` yields the commit's ± snapshot sides (uniform
   across copy-on-write, merge-on-read and compaction commits — the
   same plan every matview / index consumes).
2. One signed ``read_parquet`` of both sides (explicit snapshot schema,
   so upstream schema evolution null-fills old files in the scanner),
   bucketed by key hash, then one ``groupby().map_groups`` resolve per
   bucket: a key is CHANGED iff its (data columns, version, tombstone
   flag) differ between sides or it appears on only one — untouched
   keys co-located in a rewritten COW partition cancel exactly and emit
   nothing, so downstream lineage stays proportional to what actually
   changed.
3. Changed live rows feed the user transform IN the resolve task;
   output rows become ``upsert`` events (the upstream row's version and
   ``_seq`` propagate, so downstream LWW tie-breaks mirror upstream
   exactly), rows the transform drops and upstream tombstones become
   ``delete`` events. The event set commits downstream via
   ``commit_epoch(epoch=<upstream commit id>)`` — the downstream lake's
   own exactly-once guard makes the whole chain crash-resumable, and
   an epoch with zero changes commits empty to advance the cursor.

Transform contract (validated in-task, loud
:class:`TransformContractError` otherwise): ``transform(df) -> df``
receives the upstream LIVE rows of the commit's changed keys with the
upstream target schema (key + data columns, version included), and must
return at most one row per input key, keys a subset of the input, key
column present, and the SAME columns for an empty input (standard
pandas discipline). Row-local determinism is assumed exactly as for
:class:`~chomper_ray.state.backfill.LakeBackfill` transforms. The
output data schema is declared up front (``out_schema``) so every
resolve task emits identically-typed blocks regardless of how many
upserts vs deletes it carries.

Upstream ``truncate`` propagates as a downstream truncate; commits
whose previous-version inputs were compacted away route to a full
resync (transform of the full resolved upstream state plus anti-join
deletes of downstream-only keys — the same full-recompute fallback the
matviews use). Because a downstream truncate resets the downstream log
cursor, the derived table keeps its own atomic cursor file recording
the last applied upstream commit id; resume takes the max of the two,
and ``commit_epoch``'s guard backstops any crash between commit and
cursor write.

Cascading is free by construction: the downstream table is a plain
``LakeTable``, so matviews, maintained indexes, layouts — or another
``DerivedLakeTable`` — hang off it unchanged.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import uuid
from pathlib import Path
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from chomper_ray.stages.merge import (BUCKET_COL, INTERNAL_DELETED,
                                      INTERNAL_SEQ, stable_bucket)
from chomper_ray.state import schema as schema_mod
from chomper_ray.state.lake import (LakeTable, commit_ts_for,
                                    committed_epochs, load_manifest,
                                    materialize_mor_resolved,
                                    plan_commit_diff)

# seq for engine-synthesized delete events that must beat a stored row
# carrying the same version (full-resync anti-join deletes): any real
# propagated _seq is far below this.
_SYNC_SEQ = 1 << 62

_CURSOR = "_derived_cursor.json"


class TransformContractError(ValueError):
    """The user transform violated the row-local contract (duplicate
    keys, invented keys, missing key column, or non-DataFrame)."""


def _is_arraylike_col(s: pd.Series) -> bool:
    if s.dtype != object:
        return False
    for v in s.head(20):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        return isinstance(v, (np.ndarray, list, tuple))
    return False


def _neq(a: pd.Series, b: pd.Series) -> pd.Series:
    """Null-safe per-row inequality (NaN == NaN). Array-valued cells
    (embedding columns read back as ndarrays/lists) compare by content
    — a plain ``!=`` would yield per-row arrays and ambiguous truth."""
    if _is_arraylike_col(a) or _is_arraylike_col(b):
        def norm(s: pd.Series) -> pd.Series:
            return s.map(lambda v: tuple(np.asarray(v).tolist())
                         if isinstance(v, (np.ndarray, list, tuple))
                         else v)
        a, b = norm(a), norm(b)
    both_na = a.isna() & b.isna()
    na_flip = a.isna() ^ b.isna()
    diff = (a != b)
    if diff.dtype != bool:
        diff = diff.fillna(False).astype(bool)
    return (~both_na) & (na_flip | diff)


def _events_table(frame: pd.DataFrame, ev: pa.Schema) -> pa.Table:
    """Frame -> typed events table: column-wise ``Array.from_pandas``
    with the declared type, so all-NA columns become typed nulls and
    float-NaN artifacts of pandas merges land as NULL int64, never a
    failed cast; columns the frame lacks null-fill."""
    cols = []
    for fld in ev:
        if fld.name in frame.columns:
            cols.append(pa.Array.from_pandas(frame[fld.name],
                                             type=fld.type))
        else:
            cols.append(pa.nulls(len(frame), type=fld.type))
    return pa.table(cols, schema=ev)


def _validate_out(out, in_keys: pd.Series, key: str):
    if not isinstance(out, pd.DataFrame):
        raise TransformContractError(
            f"transform must return a pandas DataFrame, got {type(out)}")
    if key not in out.columns:
        raise TransformContractError(
            f"transform output lost the key column {key!r}")
    if out[key].duplicated().any():
        dups = out[key][out[key].duplicated()].head(3).tolist()
        raise TransformContractError(
            f"transform emitted duplicate keys (e.g. {dups}) — the "
            "contract is at most one output row per input key")
    extra = set(out[key]) - set(in_keys)
    if extra:
        raise TransformContractError(
            f"transform invented keys not in its input (e.g. "
            f"{sorted(extra)[:3]}) — derived rows must map 1:1 onto "
            "upstream keys")


class DerivedLakeTable:
    """A downstream LakeTable maintained per upstream commit by a
    row-level transform. See module docstring for the contract.

    ``out_schema``: Arrow schema of the transform's output data columns
    (must include the key; the upstream version column is appended
    automatically if the transform does not carry it through).
    ``lake_kwargs`` configure the downstream table (num_partitions,
    merge_on_read, ...); key/version are pinned to the upstream's.
    """

    def __init__(self, upstream: LakeTable, root: str | Path,
                 transform: Callable[[pd.DataFrame], pd.DataFrame],
                 out_schema: pa.Schema, *,
                 lake_kwargs: dict | None = None):
        self.upstream = upstream
        self.transform = transform
        key = upstream.key
        if key not in out_schema.names:
            raise ValueError(
                f"out_schema must include the key column {key!r}")
        bad = {"op", "seq", BUCKET_COL} & set(out_schema.names)
        if bad:
            raise ValueError(
                f"out_schema may not use envelope column names {sorted(bad)}")
        self.out_schema = out_schema
        self.version_col = upstream.version[0]
        kw = dict(lake_kwargs or {})
        kw.setdefault("collect_changes", False)
        self.table = LakeTable(root, key=key,
                               version=(self.version_col, "seq"), **kw)
        self.root = Path(root)

    # -- cursor -----------------------------------------------------------
    def _applied(self) -> int | None:
        vals = []
        le = self.table.last_applied_log_epoch()
        if le is not None:
            vals.append(int(le))
        p = self.root / _CURSOR
        if p.exists():
            vals.append(int(json.loads(p.read_text())["upstream_cid"]))
        return max(vals) if vals else None

    def _write_cursor(self, cid: int) -> None:
        p = self.root / _CURSOR
        tmp = p.with_suffix(f".{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps({"upstream_cid": int(cid)}))
        os.replace(tmp, p)

    # -- event schema -----------------------------------------------------
    def _version_type(self, target: pa.Schema) -> pa.DataType:
        if self.version_col in target.names:
            return target.field(self.version_col).type
        return pa.timestamp("us")  # schema-less empty upstream epoch

    def _events_schema(self, version_type: pa.DataType) -> pa.Schema:
        fields = [pa.field("op", pa.string()), pa.field("seq", pa.int64())]
        fields += list(self.out_schema)
        if self.version_col not in self.out_schema.names:
            fields.append(pa.field(self.version_col, version_type))
        return pa.schema(fields)

    # -- refresh ----------------------------------------------------------
    def refresh(self) -> LakeTable:
        """Apply every unapplied upstream commit in chain order.
        Idempotent; crash-resumable at any point."""
        from chomper_ray.state.fs import require_local_lake_root

        require_local_lake_root(self.upstream, type(self).__name__)
        root = self.upstream.root
        cids = committed_epochs(root)
        applied = self._applied()
        prev_cid = None
        for cid in cids:
            if applied is not None and cid <= applied:
                prev_cid = cid
                continue
            man = load_manifest(root, cid)
            if man.get("truncated"):
                self.table.truncate()
                self._write_cursor(cid)
                prev_cid = cid
                continue
            prev_man = load_manifest(root, prev_cid) \
                if prev_cid is not None else None
            new_files, old_files, missing_old, scratch = plan_commit_diff(
                self.upstream, man, prev_man, prev_cid, cid,
                scratch_prefix="chomper_dt_diff_")
            try:
                if missing_old:
                    self._full_sync(cid, man)
                else:
                    self._apply_commit(cid, man, new_files, old_files)
            finally:
                if scratch is not None:
                    shutil.rmtree(scratch, ignore_errors=True)
            self._write_cursor(cid)
            prev_cid = cid
        return self.table

    # -- one commit's delta -------------------------------------------------
    def _apply_commit(self, cid: int, man: dict,
                      new_files: list[str], old_files: list[str]) -> None:
        import ray.data as rd

        target = schema_mod.schema_from_json(man["schema"])
        ev_schema = self._events_schema(self._version_type(target))
        if not new_files and not old_files:
            self._commit(cid, None, ev_schema)
            return
        read_schema = pa.schema(
            list(target) + [pa.field(INTERNAL_SEQ, pa.int64()),
                            pa.field(INTERNAL_DELETED, pa.bool_())])
        assert not (set(new_files) & set(old_files))
        signs = {f: 1 for f in new_files}
        signs.update({f: -1 for f in old_files})
        key = self.upstream.key  # diff is bucketed by the UPSTREAM key
        nb = int(man.get("num_partitions") or self.upstream.num_partitions)

        def tag(t: pa.Table) -> pa.Table:
            side = np.fromiter((signs[p] for p in t["path"].to_pylist()),
                               dtype=np.int8, count=t.num_rows)
            t = t.drop_columns(["path"]).append_column(
                "_side", pa.array(side, type=pa.int8()))
            b = stable_bucket(t[key], nb)
            return t.append_column(BUCKET_COL,
                                   pa.array(b, type=pa.int32()))

        resolve = self._make_resolver(ev_schema, list(target.names))
        ev = (rd.read_parquet(sorted(signs), schema=read_schema,
                              include_paths=True)
              .map_batches(tag, batch_format="pyarrow")
              .groupby(BUCKET_COL)
              .map_groups(resolve, batch_format="pandas"))
        self._commit(cid, ev, ev_schema)

    def _make_resolver(self, ev_schema: pa.Schema, target_names: list[str]):
        ukey = self.upstream.key
        ev_json = schema_mod.schema_to_json(ev_schema)
        data_cols = [c for c in target_names if c != ukey]
        emit = self._emit_events  # bound method; self ships by value

        def resolve(df: pd.DataFrame) -> pa.Table:
            ev = schema_mod.schema_from_json(ev_json)
            new = df[df["_side"] == 1]
            old = df[df["_side"] == -1]
            m = new.merge(old, on=ukey, how="outer",
                          suffixes=("", "__o"), indicator=True)
            changed = m["_merge"] != "both"
            for c in data_cols + [INTERNAL_DELETED]:
                both = m["_merge"] == "both"
                changed |= both & _neq(m[c], m[f"{c}__o"])
            m = m[changed]
            # old-only keys (tombstone purge / defensive): a live
            # old row vanishing without a new-side row only happens via
            # maintenance; emit a superseding delete, skip dead ones
            only_old = m[m["_merge"] == "right_only"]
            oo = only_old[
                ~only_old[INTERNAL_DELETED + "__o"].astype(bool)]
            hasnew = m[m["_merge"] != "right_only"]
            tomb_mask = hasnew[INTERNAL_DELETED].astype(bool)
            tomb, live = hasnew[tomb_mask], hasnew[~tomb_mask]
            events = emit(live, tomb, oo, target_names)
            tbls = [_events_table(f, ev) for f in events if len(f)]
            return pa.concat_tables(tbls) if tbls else ev.empty_table()

        return resolve

    def _emit_events(self, live: pd.DataFrame, tomb: pd.DataFrame,
                     oo: pd.DataFrame,
                     target_names: list[str]) -> list[pd.DataFrame]:
        """Build event frames from one bucket's changed keys:
        ``live`` = new-side live rows, ``tomb`` = new-side tombstones,
        ``oo`` = old-side-only live rows (all carrying the merged
        ``__o`` columns). Subclasses override for other cardinalities."""
        key, vcol = self.table.key, self.version_col
        events: list[pd.DataFrame] = []

        def deletes(sub: pd.DataFrame, ver: pd.Series,
                    seq: pd.Series) -> pd.DataFrame:
            d = pd.DataFrame({key: sub[key].to_numpy()})
            d["op"] = "delete"
            d["seq"] = seq.to_numpy()
            d[vcol] = ver.to_numpy()
            return d

        if len(oo):
            events.append(deletes(
                oo, oo[vcol + "__o"],
                oo[INTERNAL_SEQ + "__o"].astype("int64") + 1))
        if len(tomb):
            events.append(deletes(
                tomb, tomb[vcol], tomb[INTERNAL_SEQ].astype("int64")))
        # typed transform input even when empty — dtypes flow from
        # the snapshot read, so output dtypes are task-invariant
        inp = live[target_names].reset_index(drop=True)
        out = self.transform(inp.copy())
        _validate_out(out, inp[key], key)
        meta = live[[key, vcol, INTERNAL_SEQ]].rename(
            columns={vcol: "__ver", INTERNAL_SEQ: "__seq"})
        ups = out.merge(meta, on=key, how="left")
        ups["op"] = "upsert"
        ups["seq"] = ups.pop("__seq").astype("int64")
        if vcol not in out.columns:
            ups[vcol] = ups["__ver"]
        ups = ups.drop(columns=["__ver"], errors="ignore")
        events.append(ups)
        dropped = meta[~meta[key].isin(out[key])]
        if len(dropped):
            events.append(deletes(dropped, dropped["__ver"],
                                  dropped["__seq"].astype("int64")))
        return events

    def _full_upserts_frame(self, live: pd.DataFrame,
                            target_names: list[str]) -> pd.DataFrame:
        """Upsert events for a batch of resolved live upstream rows —
        the full-resync twin of ``_emit_events``'s live path."""
        key, vcol = self.table.key, self.version_col
        inp = live[target_names].reset_index(drop=True)
        out = self.transform(inp.copy())
        _validate_out(out, inp[key], key)
        meta = live[[key, vcol, INTERNAL_SEQ]].rename(
            columns={vcol: "__ver", INTERNAL_SEQ: "__seq"})
        ups = out.merge(meta, on=key, how="left")
        ups["op"] = "upsert"
        ups["seq"] = ups.pop("__seq").astype("int64")
        if vcol not in out.columns:
            ups[vcol] = ups["__ver"]
        return ups.drop(columns=["__ver"], errors="ignore")

    # -- fallbacks ----------------------------------------------------------
    def _full_sync(self, cid: int, man: dict) -> None:
        """Full resync at ``man`` (GC'd diff inputs): transform the full
        resolved upstream state, anti-join deletes for downstream-only
        keys. O(table) by necessity — the same fallback class as matview
        full recomputes."""
        import ray.data as rd

        target = schema_mod.schema_from_json(man["schema"])
        ev_schema = self._events_schema(self._version_type(target))
        key, vcol = self.table.key, self.version_col
        scratch = tempfile.mkdtemp(prefix="chomper_dt_full_")
        try:
            files = materialize_mor_resolved(
                self.upstream.root, man, self.upstream._mor_kwargs(),
                scratch)
            ev_json = schema_mod.schema_to_json(ev_schema)
            tnames = list(target.names)
            mk_ups = self._full_upserts_frame  # bound; self ships by value

            def upserts(df: pd.DataFrame) -> pa.Table:
                ev = schema_mod.schema_from_json(ev_json)
                live = df[~df[INTERNAL_DELETED].astype(bool)]
                return _events_table(mk_ups(live, tnames), ev)

            if files:
                read_schema = pa.schema(
                    list(target) + [pa.field(INTERNAL_SEQ, pa.int64()),
                                    pa.field(INTERNAL_DELETED, pa.bool_())])
                ups_ds = rd.read_parquet(files, schema=read_schema) \
                    .map_batches(upserts, batch_format="pandas") \
                    .materialize()
                up_keys = set(
                    ups_ds.select_columns([key]).to_pandas()[key])
            else:
                ups_ds, up_keys = None, set()
            # downstream-only live keys -> superseding deletes
            if self.table.last_committed_epoch() is not None:
                dk = self.table.read(columns=[key, vcol]).to_pandas()
            else:
                dk = pd.DataFrame(columns=[key, vcol])
            gone = dk[~dk[key].isin(up_keys)]
            parts = []
            if ups_ds is not None:
                parts.append(ups_ds)
            if len(gone):
                d = pd.DataFrame({key: gone[key].to_numpy()})
                d["op"] = "delete"
                d["seq"] = np.int64(_SYNC_SEQ)
                d[vcol] = gone[vcol].to_numpy()
                parts.append(rd.from_arrow(_events_table(d, ev_schema)))
            ds = None
            if len(parts) == 1:
                ds = parts[0]
            elif parts:
                ds = parts[0].union(*parts[1:])
            self._commit(cid, ds, ev_schema)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # -- commit -------------------------------------------------------------
    def _commit(self, cid: int, ev_ds, ev_schema: pa.Schema) -> None:
        import ray.data as rd

        if ev_ds is None:
            ev_ds = rd.from_arrow(ev_schema.empty_table())
        self.table.commit_epoch(ev_ds, cid, schema_hint=ev_schema)


class AggregateLakeTable:
    """A gold LAKE maintained from a :class:`MaterializedAgg` — makes
    aggregates non-terminal: the rollup becomes a real LakeTable, so
    everything downstream composes at any depth (another derived
    table, an outbound bus of AGGREGATE changes, branches, indexes).

    Per upstream commit the matview refreshes as usual (cost ∝ the
    commit's write amplification), then the NEW view is diffed against
    the previously committed view — both bounded by group cardinality,
    the matview's own scale contract — and only groups whose values
    changed become upsert events (vanished groups become deletes),
    committed exactly-once at the upstream commit id. Versions are
    synthesized from the commit id (monotone by construction), so the
    gold lake's LWW replays deterministically and its change stream
    (``LakeChangeExporter``) carries exactly the rollup's deltas.

    ``group_col`` must be a single column (a lake key is one column);
    compose multi-column groups into one key in the matview's contrib.
    """

    def __init__(self, agg, root: str | Path,
                 lake_kwargs: dict | None = None):
        if len(agg.group_cols) != 1:
            raise ValueError(
                "AggregateLakeTable needs a single group column — "
                "compose multi-column groups into one key in the "
                "matview contrib")
        self.agg = agg
        self.key = agg.group_cols[0]
        self.version_col = "updated_ts"
        kw = dict(lake_kwargs or {})
        kw.setdefault("collect_changes", False)
        self.table = LakeTable(root, key=self.key,
                               version=(self.version_col, "seq"), **kw)

    @staticmethod
    def _ts(cid: int) -> pd.Timestamp:
        return pd.Timestamp(commit_ts_for(cid), unit="us")

    def refresh(self) -> LakeTable:
        import ray.data as rd

        self.agg.refresh()
        applied = self.table.last_applied_log_epoch()
        cids = [c for c in self.agg.applied_commits()
                if applied is None or c > applied]
        prev_cid = max((c for c in self.agg.applied_commits()
                        if applied is not None and c <= applied),
                       default=None)
        for cid in sorted(cids):
            new = self.agg.view(cid)
            old = self.agg.view(prev_cid) if prev_cid is not None \
                else new.head(0)
            key = self.key
            m = new.merge(old, on=key, how="outer",
                          suffixes=("", "__o"), indicator=True)
            vals = [c for c in new.columns if c != key]
            changed = m["_merge"] != "both"
            for c in vals:
                changed |= (m["_merge"] == "both") \
                    & _neq(m[c], m[f"{c}__o"])
            m = m[changed]
            ups = m[m["_merge"] != "right_only"]
            gone = m[m["_merge"] == "right_only"]
            ev_schema = pa.schema(
                [pa.field("op", pa.string()), pa.field("seq", pa.int64()),
                 pa.field(self.version_col, pa.timestamp("us"))]
                + [pa.Schema.from_pandas(new).field(c)
                   for c in [key] + vals])
            frames = []
            if len(ups):
                u = ups[[key] + vals].copy()
                u["op"] = "upsert"
                frames.append(u)
            if len(gone):
                d = gone[[key]].copy()
                d["op"] = "delete"
                frames.append(d)
            events = []
            for f in frames:
                f["seq"] = np.arange(len(f), dtype=np.int64)
                f[self.version_col] = self._ts(cid)
                events.append(_events_table(f, ev_schema))
            ds = rd.from_arrow(pa.concat_tables(events)) if events \
                else rd.from_arrow(ev_schema.empty_table())
            self.table.commit_epoch(ds, cid, schema_hint=ev_schema)
            prev_cid = cid
        return self.table


def _validate_exploded(out, in_keys: pd.Series, ukey: str, dkey: str):
    if not isinstance(out, pd.DataFrame):
        raise TransformContractError(
            f"transform must return a pandas DataFrame, got {type(out)}")
    for c in (ukey, dkey):
        if c not in out.columns:
            raise TransformContractError(
                f"exploded transform output must carry both the "
                f"upstream key {ukey!r} and the derived key {dkey!r}; "
                f"missing {c!r}")
    if out[dkey].isna().any():
        raise TransformContractError("derived key may not be null")
    if out[dkey].duplicated().any():
        dups = out[dkey][out[dkey].duplicated()].head(3).tolist()
        raise TransformContractError(
            f"duplicate derived keys (e.g. {dups}) — derived keys must "
            "be unique (embed the upstream key, e.g. url + '#' + i)")
    extra = set(out[ukey]) - set(in_keys)
    if extra:
        raise TransformContractError(
            f"transform invented upstream keys (e.g. "
            f"{sorted(extra)[:3]}) — derived rows must map onto "
            "upstream keys")


class ExplodedLakeTable(DerivedLakeTable):
    """1→N derived lake: each upstream row explodes into ANY number of
    downstream rows keyed by a DERIVED key — the chunk/passage-table
    primitive (page → fixed-size text chunks for training/retrieval),
    maintained per upstream commit like :class:`DerivedLakeTable`.

    ``transform(df) -> df`` receives the changed upstream live rows and
    returns any number of rows per input key; the output must carry
    BOTH the upstream key (provenance + version mapping) and
    ``derived_key`` (the downstream lake key — must embed the upstream
    key so rows of different upstream keys can never collide, e.g.
    ``url + '#' + chunk_index``). Deletes need no stored chunk-count
    state: the deterministic transform is re-run on the diff's OLD live
    rows, and old derived keys absent from the new output become
    delete events (an upstream delete or shrink removes exactly its
    stale chunks). Versions/_seq propagate from the upstream row to
    every one of its derived rows.
    """

    def __init__(self, upstream: LakeTable, root: str | Path,
                 transform: Callable[[pd.DataFrame], pd.DataFrame],
                 out_schema: pa.Schema, *, derived_key: str,
                 lake_kwargs: dict | None = None):
        super().__init__(upstream, root, transform, out_schema,
                         lake_kwargs=lake_kwargs)
        if derived_key not in out_schema.names:
            raise ValueError(
                f"out_schema must include derived_key {derived_key!r}")
        if derived_key == upstream.key:
            raise ValueError(
                "derived_key must differ from the upstream key — use "
                "DerivedLakeTable for 1:1 derivation")
        self.derived_key = derived_key
        kw = dict(lake_kwargs or {})
        kw.setdefault("collect_changes", False)
        self.table = LakeTable(root, key=derived_key,
                               version=(self.version_col, "seq"), **kw)

    def _emit_events(self, live: pd.DataFrame, tomb: pd.DataFrame,
                     oo: pd.DataFrame,
                     target_names: list[str]) -> list[pd.DataFrame]:
        ukey, vcol, dkey = self.upstream.key, self.version_col, \
            self.derived_key
        # new-side derived rows (changed live upstream rows only)
        inp_new = live[target_names].reset_index(drop=True)
        out_new = self.transform(inp_new.copy())
        _validate_exploded(out_new, inp_new[ukey], ukey, dkey)
        # old-side derived rows: re-run the deterministic transform on
        # every changed key's previous LIVE row (from live updates,
        # new tombstones, and old-only maintenance rows alike)
        olds = []
        for sub in (live, tomb):
            if len(sub):
                o = sub[sub["_merge"] == "both"]
                o = o[~o[INTERNAL_DELETED + "__o"].astype(bool)]
                if len(o):
                    olds.append(o)
        if len(oo):
            olds.append(oo)
        if olds:
            old_all = pd.concat(olds, ignore_index=True, sort=False)
        else:
            old_all = live.head(0)
        # the merge key carries no suffix; data columns live under __o
        inp_old = pd.DataFrame({ukey: old_all[ukey].to_numpy()})
        for c in target_names:
            if c != ukey:
                inp_old[c] = old_all[f"{c}__o"].to_numpy()
        inp_old = inp_old[target_names].reset_index(drop=True)
        out_old = self.transform(inp_old.copy())
        _validate_exploded(out_old, inp_old[ukey], ukey, dkey)
        # per-upstream-key (version, seq) at which this change happened
        vmaps = []
        for sub in (live, tomb):
            if len(sub):
                vmaps.append(pd.DataFrame({
                    ukey: sub[ukey].to_numpy(),
                    "__ver": sub[vcol].to_numpy(),
                    "__seq": sub[INTERNAL_SEQ].astype("int64").to_numpy(),
                }))
        if len(oo):
            vmaps.append(pd.DataFrame({
                ukey: oo[ukey].to_numpy(),
                "__ver": oo[vcol + "__o"].to_numpy(),
                "__seq": oo[INTERNAL_SEQ + "__o"].astype("int64")
                .to_numpy() + 1,
            }))
        vmap = pd.concat(vmaps, ignore_index=True) if vmaps else \
            pd.DataFrame(columns=[ukey, "__ver", "__seq"])
        events: list[pd.DataFrame] = []
        ups = out_new.merge(vmap, on=ukey, how="left")
        ups["op"] = "upsert"
        ups["seq"] = ups.pop("__seq").astype("int64")
        if vcol not in out_new.columns:
            ups[vcol] = ups["__ver"]
        events.append(ups.drop(columns=["__ver"], errors="ignore"))
        stale = out_old[~out_old[dkey].isin(out_new[dkey])]
        if len(stale):
            d = stale[[dkey, ukey]].merge(vmap, on=ukey, how="left")
            d["op"] = "delete"
            d["seq"] = d.pop("__seq").astype("int64")
            d[vcol] = d.pop("__ver")
            events.append(d)
        return events

    def _full_upserts_frame(self, live: pd.DataFrame,
                            target_names: list[str]) -> pd.DataFrame:
        ukey, vcol, dkey = self.upstream.key, self.version_col, \
            self.derived_key
        inp = live[target_names].reset_index(drop=True)
        out = self.transform(inp.copy())
        _validate_exploded(out, inp[ukey], ukey, dkey)
        meta = live[[ukey, vcol, INTERNAL_SEQ]].rename(
            columns={vcol: "__ver", INTERNAL_SEQ: "__seq"})
        ups = out.merge(meta, on=ukey, how="left")
        ups["op"] = "upsert"
        ups["seq"] = ups.pop("__seq").astype("int64")
        if vcol not in out.columns:
            ups[vcol] = ups["__ver"]
        return ups.drop(columns=["__ver"], errors="ignore")
