"""Last-writer-wins keyed merge primitives.

The reference's semantic kernel is the row-at-a-time SELECT→UPDATE/INSERT
upsert (``/root/reference/chomper/contrib/postgres.py:374-386``,
``contrib/sql/exporters.py:234-252``) with arrival order as version order.
Here the version is EXPLICIT — ``(warc_ts, seq)`` totally orders events per
key (tie-break by ``seq``, SURVEY §7.6) — which makes the reduce
associative + commutative, so it runs as:

1. **partial reduce inside every batch** (``lww_dedup_table``): at most one
   row per key leaves each Arrow block. This IS the salting/combiner step:
   a hot key with 10^6 events collapses to ≤ #blocks rows before any
   shuffle, so no single reducer sees the raw hot-key volume.
2. **bucket shuffle**: one stable hash bucket column (``add_bucket``) —
   the SAME function that lays out the lake table, so the change-set
   arrives already aligned with its target partition and the merge is
   partition-local (SURVEY §7.4).
3. **final reduce per bucket** (``groupby('bucket').map_groups``),
   vectorized over the whole bucket.

All kernels are Arrow/numpy — no Python-per-row work.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

DEFAULT_KEY = "url"
DEFAULT_VERSION = ("warc_ts", "seq")
BUCKET_COL = "_bucket"


def stable_bucket(values, num_buckets: int) -> np.ndarray:
    """Deterministic, process-stable hash bucket for a string/int column.

    Uses pandas' vectorized siphash (fixed key) — NOT Python ``hash()``,
    which is salted per process and would mis-route rows across retries
    and cluster nodes.

    String and bytes arrays (nulls allowed) hash each distinct value
    once, found by Arrow's ``dictionary_encode``, and take the hashes
    back by index: the categorized hash, without pandas' factorize. That
    factorize compares ``str`` objects as C strings, so it merged two
    strings that differ only after an embedded NUL and hashed both as
    the first one seen; Arrow compares full lengths, so every string
    routes by its own value, whatever else its array holds. A single
    ``str`` or ``bytes`` value (a point lookup's key) is hashed directly:
    the value ``_bucket_text`` computes for a one-entry dictionary. Other
    arrays keep the categorized hash.
    """
    if isinstance(values, (list, tuple)) and len(values) == 1 \
            and isinstance(values[0], (str, bytes)):
        hashed = pd.util.hash_array(np.array(values, dtype=object),
                                    categorize=False)
        return (hashed % num_buckets).astype(np.int32)
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if _is_text(values.type):
            return _bucket_text(values, num_buckets)
        values = values.to_pandas().to_numpy()
    arr = np.asarray(values)
    if isinstance(values, (list, tuple)) and arr.dtype.kind in ("U", "S") \
            and all(isinstance(v, (str, bytes)) for v in values):
        # fixed-width numpy strings drop trailing NULs: keep the objects
        arr = np.array(values, dtype=object)
    if arr.dtype.kind not in ("i", "u"):
        arr = arr.astype(object)
        kind = pd.api.types.infer_dtype(arr, skipna=True)
        if kind in ("string", "bytes"):
            typ = pa.string() if kind == "string" else pa.binary()
            return _bucket_text(pa.array(arr, typ, from_pandas=True),
                                num_buckets)
    return (pd.util.hash_array(arr) % num_buckets).astype(np.int32)


def _is_text(typ: pa.DataType) -> bool:
    return (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ))


def _bucket_text(arr, num_buckets: int) -> np.ndarray:
    """``stable_bucket`` of a string/binary Arrow array: the categorized
    hash of each distinct value, null cells at pandas' null hash."""
    if isinstance(arr, pa.ChunkedArray):
        return np.concatenate([_bucket_text(c, num_buckets)
                               for c in arr.chunks] + [np.zeros(0, np.int32)])
    enc = arr.dictionary_encode()
    hashed = pd.util.hash_array(
        enc.dictionary.to_numpy(zero_copy_only=False), categorize=False)
    if arr.null_count:
        out = np.full(len(arr), np.iinfo(np.uint64).max, np.uint64)
        out[arr.is_valid().to_numpy(zero_copy_only=False)] = \
            hashed.take(enc.indices.drop_null().to_numpy())
    else:
        out = hashed.take(enc.indices.to_numpy())
    return (out % num_buckets).astype(np.int32)


def add_bucket(table: pa.Table, key: str, num_buckets: int,
               col: str = BUCKET_COL) -> pa.Table:
    b = stable_bucket(table[key], num_buckets)
    if col in table.column_names:
        table = table.drop_columns([col])
    return table.append_column(col, pa.array(b, type=pa.int32()))


def lww_dedup_table(table: pa.Table, key: str = DEFAULT_KEY,
                    version: tuple[str, ...] = DEFAULT_VERSION) -> pa.Table:
    """Keep the max-version row per key. Vectorized: sort by
    (key, *version) ascending, keep each key's last row via an adjacent
    key-boundary mask."""
    if table.num_rows <= 1:
        return table
    sort_keys = [(key, "ascending")] + [(v, "ascending") for v in version]
    t = table.sort_by(sort_keys)
    k = t[key].combine_chunks()
    n = len(k)
    is_last = pc.not_equal(k.slice(0, n - 1), k.slice(1, n - 1))
    mask = pa.concat_arrays([pc.fill_null(is_last, True), pa.array([True])])
    return t.filter(mask)


def lww_changeset(ds, key: str = DEFAULT_KEY,
                  version: tuple[str, ...] = DEFAULT_VERSION,
                  num_buckets: int = 32):
    """Dataset-level LWW dedup: partial per-block reduce → bucket column →
    per-bucket final reduce. Returns a Dataset with ``_bucket`` retained
    (callers co-partition downstream work on it)."""
    ds = ds.map_batches(
        lambda t: add_bucket(lww_dedup_table(t, key, version), key, num_buckets),
        batch_format="pyarrow",
    )
    return ds.groupby(BUCKET_COL).map_groups(
        lambda t: lww_dedup_table(t, key, version), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# per-partition apply (pandas-vectorized; runs inside map_groups workers)
# ---------------------------------------------------------------------------

INTERNAL_SEQ = "_seq"
INTERNAL_DELETED = "_deleted"


def lww_apply_table(base: pa.Table, changes: pa.Table, schema: pa.Schema,
                    *, key: str = DEFAULT_KEY,
                    version_ts: str = "warc_ts") -> pa.Table:
    """Arrow twin of ``apply_changes`` for its default policy
    (``overwrite=True``, no ``protected`` columns, no managed timestamps,
    ``insert_missing=True``, no change events): the merged snapshot in
    ``schema`` (which carries ``_seq`` / ``_deleted``), sorted by key.

    The change rows are conformed to ``schema`` (``seq`` → ``_seq``,
    ``op == "delete"`` → ``_deleted``, missing columns null, extra
    columns dropped), appended after the base and reduced by
    ``lww_dedup_table`` on ``(version_ts, _seq)``. Arrow's sort is
    stable, so on an exact ``(key, ts, seq)`` tie the change row wins —
    the concat order makes it win in ``apply_changes`` too. Null keys
    are dropped, as the pandas groupby drops them; float NaN comes out
    null and a null ``_deleted`` false, as the pandas round trip makes
    them."""
    n = changes.num_rows
    cols = []
    for f in schema:
        if f.name == INTERNAL_DELETED:
            col = pc.equal(changes["op"], "delete")
        else:
            src = "seq" if f.name == INTERNAL_SEQ else f.name
            if src not in changes.column_names:
                cols.append(pa.nulls(n, type=f.type))
                continue
            col = changes[src]
        cols.append(col if col.type.equals(f.type) else col.cast(f.type))
    both = pa.concat_tables([base.select(schema.names).cast(schema),
                             pa.Table.from_arrays(cols, schema=schema)])
    if both[key].null_count:
        both = both.filter(pc.is_valid(both[key]))
    return snapshot_cells(lww_dedup_table(both, key,
                                          (version_ts, INTERNAL_SEQ)))


def snapshot_cells(tbl: pa.Table) -> pa.Table:
    """The cell forms a snapshot keeps, as the pandas round trip of
    ``apply_changes`` leaves them: float NaN as null, a null
    ``_deleted`` as false."""
    for i, f in enumerate(tbl.schema):
        col = tbl[i]
        if f.name == INTERNAL_DELETED:
            if not col.null_count:
                continue
            col = pc.fill_null(col, False)
        elif pa.types.is_floating(f.type):
            col = pc.if_else(pc.is_nan(col), pa.scalar(None, f.type), col)
        else:
            continue
        tbl = tbl.set_column(i, f, col)
    return tbl


def apply_changes(
    base: pd.DataFrame,
    changes: pd.DataFrame,
    *,
    key: str = DEFAULT_KEY,
    version_ts: str = "warc_ts",
    overwrite: bool = True,
    protected: tuple[str, ...] = (),
    managed_timestamps: bool = False,
    commit_ts=None,
    collect_changes: bool = True,
    insert_missing: bool = True,
) -> tuple[pd.DataFrame, pd.DataFrame | None]:
    """Merge a deduped change-set into one partition's snapshot.

    ``base`` carries internal columns ``_seq`` (version tie-break) and
    ``_deleted`` (tombstone — versions persist across epochs so a late,
    older event can never resurrect a deleted key, SURVEY §7.6).
    ``changes`` carries the event envelope (``op``, ``seq``).

    Policies (reference ``contrib/sql/exporters.py:202-322``):
    - ``overwrite=True``  → last writer wins per row (LWW).
    - ``overwrite=False`` → truthy-exclusion (exporters.py:239): an
      update may overwrite a column only while its current value is
      FALSY (null, 0, '', False) — the first truthy value sticks,
      applied in version order. The row's version still advances to max.
    - ``protected`` columns are never modified on existing rows
      (exporters.py:50-54, 119-120).
    - ``managed_timestamps`` → ``created_at`` set on insert only,
      ``updated_at`` on every write (exporters.py:124-145, 160-161).

    Returns ``(new_snapshot, change_events)`` where change_events has
    columns ``(key, field, event)`` per the listener matrix of
    ``/root/reference/tests/test_sql.py:177-210``: ``insert`` when no
    prior live row; ``update`` when a prior live row exists; per-field
    ``change`` rows for differing columns (every present column on
    insert, exporters.py:303-305); unchanged columns do NOT fire.
    """
    if not insert_missing:
        # update-only semantics (reference Updater, contrib/sql/
        # exporters.py:185-199): events for keys without a live base row
        # are dropped, not inserted
        live_keys = set(base.loc[~base[INTERNAL_DELETED].astype(bool), key]) \
            if len(base) else set()
        changes = changes[changes[key].isin(live_keys)]

    ts_cols = ["created_at", "updated_at"] if managed_timestamps else []
    data_cols = [c for c in changes.columns
                 if c not in ("op", "seq", key, INTERNAL_SEQ, INTERNAL_DELETED)]
    all_data_cols = sorted(set(data_cols) | set(
        c for c in base.columns
        if c not in (key, INTERNAL_SEQ, INTERNAL_DELETED, *ts_cols)
    ), key=lambda c: (c != version_ts, c))

    ch = changes.rename(columns={"seq": INTERNAL_SEQ}).copy()
    ch[INTERNAL_DELETED] = ch.pop("op").eq("delete")
    ch["_is_base"] = False
    b = base.copy()
    b["_is_base"] = True
    for c in all_data_cols + ts_cols + [INTERNAL_SEQ, INTERNAL_DELETED]:
        for df, other in ((b, ch), (ch, b)):
            if c not in df.columns:
                df[c] = _filler(other.get(c), df.index)
    cols = [key, *all_data_cols, *ts_cols, INTERNAL_SEQ, INTERNAL_DELETED, "_is_base"]
    # an empty side takes no part in the result dtypes
    both = pd.concat([df[cols] for df in (b, ch) if len(df)]
                     or [b[cols], ch[cols]], ignore_index=True)
    both = both.sort_values([key, version_ts, INTERNAL_SEQ],
                            kind="stable").reset_index(drop=True)

    grp = both.groupby(key, sort=True)
    last = grp.tail(1).set_index(key)  # LWW winner per key

    if overwrite:
        new = last.copy()
        if protected:
            # protected columns keep base values, but only where a LIVE
            # base row existed (a tombstoned key doesn't "exist", so a
            # re-insert keeps its own values — reference semantics:
            # never-touch applies to existing rows, exporters.py:119-120)
            base_live = base[~base[INTERNAL_DELETED].astype(bool)] \
                if len(base) else base
            base_idx = base_live.set_index(key)
            inter = new.index.intersection(base_idx.index)
            for c in protected:
                if c in base_idx.columns:
                    new.loc[inter, c] = base_idx.loc[inter, c]
    else:
        # truthy-exclusion fold (reference exporters.py:239: ``exclude =
        # [col for col, value in result.items() if value]``): each event
        # overwrites only columns whose CURRENT value is falsy — None, 0,
        # '' and False are all overwritable, only truthy values stick.
        # Folded over [base, events in version order], per column that is:
        # the FIRST TRUTHY value in the chain, else the chain's LAST value.
        order = both.sort_values([key, "_is_base", version_ts, INTERNAL_SEQ],
                                 ascending=[True, False, True, True], kind="stable")
        g = order.groupby(key, sort=True)
        new = g.tail(1).set_index(key)  # literal last row (incl. nulls)
        for c in all_data_cols:
            v = order[c]
            truthy = v.notna() & v.astype(object).map(
                lambda x: x is not None and x == x and bool(x))
            ft = order.loc[truthy, [key, c]].groupby(key, sort=True)[c].first()
            new[c] = ft.combine_first(new[c])
        if protected:
            base_live = base[~base[INTERNAL_DELETED].astype(bool)] \
                if len(base) else base
            base_idx = base_live.set_index(key)
            inter = new.index.intersection(base_idx.index)
            for c in protected:
                if c in base_idx.columns:
                    new.loc[inter, c] = base_idx.loc[inter, c]
        for c in (version_ts, INTERNAL_SEQ, INTERNAL_DELETED):
            new[c] = last[c]

    new[INTERNAL_DELETED] = new[INTERNAL_DELETED].astype(bool)

    old_live = base[~base[INTERNAL_DELETED].astype(bool)].set_index(key) \
        if len(base) else base.set_index(key) if key in base.columns else pd.DataFrame()

    if managed_timestamps:
        prior_created = old_live["created_at"] if "created_at" in getattr(old_live, "columns", []) else None
        is_insert_mask = ~new.index.isin(getattr(old_live, "index", []))
        new["created_at"] = None if prior_created is None else prior_created.reindex(new.index)
        new.loc[is_insert_mask, "created_at"] = commit_ts
        touched = new.index.isin(ch[key])
        new.loc[touched, "updated_at"] = commit_ts
        if "updated_at" in getattr(old_live, "columns", []):
            keep = ~touched
            new.loc[keep, "updated_at"] = old_live["updated_at"].reindex(new.index)[keep]

    events = None
    if collect_changes:
        events = _diff_events(old_live, new, key, all_data_cols, ch)
    out = new.drop(columns=["_is_base"]).reset_index()
    return out, events


def _filler(like: pd.Series | None, index: pd.Index) -> pd.Series:
    """An all-null column for the side of the merge that lacks it, in
    the other side's dtype where that dtype holds nulls natively (float,
    datetime), else object ``None``. pandas 2.x warns that it will stop
    skipping all-null columns when it picks a concatenated dtype; with
    the other side's dtype there is nothing to skip."""
    if like is not None and like.dtype.kind in "fmM":
        return pd.Series(None, index=index, dtype=like.dtype)
    return pd.Series([None] * len(index), index=index, dtype=object)


def _diff_events(old_live, new, key, data_cols, ch) -> pd.DataFrame:
    """Listener rows (key, field, event) — fully vectorized old-vs-new
    diff (matrix compare + stack). No per-key×column Python loop: an
    epoch touching 10^7 keys × 5 columns builds two boolean matrices and
    stacks the True cells, instead of allocating 10^8 tuples."""
    touched_keys = pd.Index(ch[key].unique())
    new_t = new[new.index.isin(touched_keys)]
    live_new = new_t[~new_t[INTERNAL_DELETED]]
    old_index = getattr(old_live, "index", pd.Index([]))

    ins = live_new.index.difference(old_index)
    upd = live_new.index.intersection(old_index)
    dele = new_t[new_t[INTERNAL_DELETED]].index.intersection(old_index)

    def rows_frame(keys, field, event):
        return pd.DataFrame({key: keys.to_numpy(),
                             "field": pd.Series([field] * len(keys),
                                                dtype=object),
                             "event": event})

    def change_frame(mask: pd.DataFrame):
        r, c = np.nonzero(mask.to_numpy(dtype=bool))
        return pd.DataFrame({
            key: mask.index.to_numpy()[r],
            "field": np.asarray(list(mask.columns), dtype=object)[c],
            "event": "change"})

    frames = [rows_frame(ins, None, "insert"),
              rows_frame(upd, None, "update"),
              rows_frame(dele, None, "delete")]
    cols = [c for c in data_cols]
    if len(ins) and cols:
        # insert: every present (non-null) column fires change.<field>
        frames.append(change_frame(live_new.loc[ins, cols].notna()))
    if len(upd) and cols:
        nv = live_new.loc[upd, cols].copy()
        ov = (old_live.reindex(index=upd, columns=cols)
              if len(getattr(old_live, "columns", [])) else
              pd.DataFrame(None, index=upd, columns=cols,
                           dtype=object)).copy()
        for c in cols:
            # array-valued cells (embedding columns) compare by
            # content — elementwise eq would be ambiguous
            for df in (nv, ov):
                if df[c].dtype == object and any(
                        isinstance(v, (np.ndarray, list, tuple))
                        for v in df[c].head(20) if v is not None):
                    df[c] = df[c].map(
                        lambda v: tuple(np.asarray(v).tolist())
                        if isinstance(v, (np.ndarray, list, tuple))
                        else v)
        neq = ~((ov.isna() & nv.isna()) | ov.eq(nv).fillna(False))
        frames.append(change_frame(neq))
    out = pd.concat(frames, ignore_index=True)
    return out.sort_values([key, "event", "field"],
                           na_position="first").reset_index(drop=True)
