"""The lake's data file format, and lakes written before it.

- Every Parquet file under ``data/`` and ``changes/`` follows one rule,
  whichever operation wrote it (a copy-on-write commit, a merge-on-read
  commit, ``compact_deltas``, ``delete_where``, ``repartition_table``,
  a backfill): no ``pandas`` schema metadata; payload columns (string
  or binary, not the key) zstd without statistics; statistics on the
  key; snappy on every other column, nested leaves included.
- Upgrade: a lake whose files carry pyarrow's default format and the
  ``pandas`` metadata, continued by the current writer, reads like a
  lake written wholly by it: ``read_pandas``, every key's ``lookup``,
  ``fsck`` and ``snapshot_hash`` agree, on both storage kinds and on an
  object-store root.
- ``stable_bucket`` routes every array as the categorized hash did,
  Arrow or numpy, chunked or not, with or without nulls and repeats,
  except strings that differ only after an embedded NUL, which factorize
  merged into whichever came first; each string now routes by its own
  value, whatever else the array holds.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings, strategies as st

from chomper_ray.pipelines.cdc import run_cdc
from chomper_ray.sources import events as ev
from chomper_ray.stages.merge import stable_bucket
from chomper_ray.state.backfill import LakeBackfill
from chomper_ray.functions.expr import F
from chomper_ray.state.fs import (FsPath, fs_parquet_file, fs_publish_table,
                                  fs_read_table, fs_rglob,
                                  object_store_test_fs)
from chomper_ray.state.lake import LakeTable

MOR_KW = {"merge_on_read": True, "collect_changes": False}
WM = 10**18  # delete_where version: later than every generated event


@pytest.fixture(scope="module")
def change_log(tmp_path_factory):
    d = tmp_path_factory.mktemp("fmtlog")
    ev.generate_change_stream(
        d, n_events=1500, n_urls=300, n_epochs=3, seed=29,
        delete_frac=0.06, ooo_frac=0.15, evolution_epoch=2)
    return d


def _is_payload(typ) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ) \
        or pa.types.is_binary(typ) or pa.types.is_large_binary(typ)


def format_faults(p, key: str) -> list[str]:
    """How the Parquet file at ``p`` breaks the lake's format rule."""
    with fs_parquet_file(p) as pf:
        schema, md = pf.schema_arrow, pf.metadata
    faults = []
    if b"pandas" in (schema.metadata or {}):
        faults.append("pandas metadata")
    payload = {f.name for f in schema if f.name != key and _is_payload(f.type)}
    for i in range(md.num_row_groups):
        for j in range(md.num_columns):
            c = md.row_group(i).column(j)
            top = c.path_in_schema.split(".")[0]
            if top in payload:
                if c.compression != "ZSTD" or c.is_stats_set:
                    faults.append(f"{c.path_in_schema}: {c.compression}, "
                                  f"stats {c.is_stats_set}")
            elif c.compression != "SNAPPY":
                faults.append(f"{c.path_in_schema}: {c.compression}")
            elif top == key and not (c.is_stats_set
                                     and c.statistics.has_min_max):
                faults.append(f"{c.path_in_schema}: no key statistics")
    return faults


def lake_files(root) -> list:
    return [f for sub in ("data", "changes")
            for f, _ in fs_rglob(root / sub, "*.parquet")]


def assert_lake_format(root, key: str = "url") -> int:
    files = lake_files(root)
    bad = {str(f): fl for f in files if (fl := format_faults(f, key))}
    assert not bad, bad
    return len(files)


def test_publish_rule_covers_nested_columns(tmp_path):
    tbl = pa.table({
        "k": ["a", "b"], "text": ["x" * 50, "y" * 50], "raw": [b"1", b"2"],
        "n": [1, 2], "tags": [["p"], ["q", "r"]],
        "meta": [{"s": "u", "v": 1}, {"s": "w", "v": 2}],
        "m": pa.array([[("a", 1)], []], type=pa.map_(pa.string(),
                                                     pa.int64())),
        "lang": pa.array(["de", "en"]).dictionary_encode(),
    }).replace_schema_metadata({"pandas": "{}", "origin": "test"})
    p = tmp_path / "f.parquet"
    fs_publish_table(tbl, p, key="k")
    assert format_faults(p, "k") == []
    got = pq.read_table(p)
    assert got.schema.metadata == {b"origin": b"test"}
    assert got.equals(tbl.replace_schema_metadata({"origin": "test"}))
    with pq.ParquetFile(p) as pf:
        codecs = {pf.metadata.row_group(0).column(j).path_in_schema:
                  pf.metadata.row_group(0).column(j).compression
                  for j in range(pf.metadata.num_columns)}
    assert codecs["text"] == codecs["raw"] == "ZSTD"
    assert {codecs[c] for c in ("k", "n", "tags.list.element", "meta.s",
                                "m.key_value.key", "lang")} == {"SNAPPY"}
    with pytest.raises(KeyError, match="zz"):
        fs_publish_table(tbl, tmp_path / "g.parquet", key="zz")


def test_every_lake_writer_follows_the_rule(change_log, tmp_path):
    cow = tmp_path / "cow"
    run_cdc(change_log, cow, num_partitions=4)
    lake = LakeTable(cow, num_partitions=4)
    n_commit = assert_lake_format(cow)
    assert any(str(f).startswith(str(cow / "changes"))
               for f in lake_files(cow))
    lake.delete_where(F("lang") == "de", version_ts_us=WM)
    lake.repartition_table(6)

    def tokens(t: pa.Table) -> pa.Table:
        return t.append_column("n_chars", pa.compute.utf8_length(
            pa.compute.fill_null(t["text"], "")).cast(pa.int64()))

    LakeBackfill(lake, "chars-v1", tokens).run()
    assert assert_lake_format(cow) > n_commit
    names = {f.name for f in lake_files(cow)}
    # delete_where commits like ingest; repartition and backfill
    # snapshots end in r and b
    for suffix in ("r.parquet", "b.parquet"):
        assert any(n.endswith(suffix) for n in names), suffix

    mor = tmp_path / "mor"
    run_cdc(change_log, mor, num_partitions=4, lake_kwargs=MOR_KW)
    n_deltas = assert_lake_format(mor)
    LakeTable(mor, **MOR_KW).compact_deltas()
    assert assert_lake_format(mor) > n_deltas
    assert any(f.name.endswith("m.parquet") for f in lake_files(mor))


def _rewrite_legacy(root) -> int:
    """Rewrite every lake data file as the writer wrote it before the
    format rule: pyarrow's defaults (snappy, statistics on every column)
    and the ``pandas`` metadata of the frame the table came from."""
    files = lake_files(root)
    for f in files:
        tbl = fs_read_table(f)
        old = pa.Table.from_pandas(tbl.to_pandas(), schema=tbl.schema,
                                   preserve_index=False)
        assert old.equals(tbl)
        if isinstance(f, FsPath):
            pq.write_table(old, f.key, filesystem=f.fs)
        else:
            pq.write_table(old, f)
        assert "pandas metadata" in format_faults(f, "url")
    return len(files)


def _build(log, root, kw, legacy: bool) -> LakeTable:
    """Epoch 0 (folded on merge-on-read) and epoch 1, optionally
    rewritten in the old format, then epoch 2 by the current writer."""
    run_cdc(log, root, num_partitions=4, max_epochs=1, lake_kwargs=kw)
    lake = LakeTable(root, **kw)
    if kw:
        lake.compact_deltas()
    run_cdc(log, root, max_epochs=1, lake_kwargs=kw)
    if legacy:
        assert _rewrite_legacy(root) > 4
    assert run_cdc(log, root, lake_kwargs=kw).epochs_run == [2]
    return lake


@pytest.mark.parametrize("kind,store", [
    ("cow", False), ("mor", False), ("cow", True), ("mor", True)])
def test_old_format_lake_reads_on(change_log, tmp_path, kind, store):
    kw = MOR_KW if kind == "mor" else {}

    def root(name):
        if store:
            return FsPath(object_store_test_fs(tmp_path / name), "lake")
        return tmp_path / name

    old = _build(change_log, root("old"), kw, legacy=True)
    new = _build(change_log, root("new"), kw, legacy=False)
    want = new.read_pandas()
    pd.testing.assert_frame_equal(old.read_pandas(), want)
    assert old.snapshot_hash() == new.snapshot_hash()
    for lake in (old, new):
        assert lake.fsck()["ok"]
    for k in want["url"]:
        pd.testing.assert_frame_equal(old.lookup(k), new.lookup(k), obj=k)
    if kind == "mor":  # fold the mixed-format chains
        old.compact_deltas()
        new.compact_deltas()
        assert old.snapshot_hash() == new.snapshot_hash()
        pd.testing.assert_frame_equal(old.read_pandas(), want)


# -- stable_bucket -------------------------------------------------------------

def _categorized_bucket(values, num_buckets: int) -> np.ndarray:
    """``stable_bucket`` as it hashed every array: through factorize."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = values.to_pandas().to_numpy()
    arr = np.asarray(values)
    if arr.dtype.kind not in ("i", "u"):
        arr = arr.astype(object)
    return (pd.util.hash_array(arr, categorize=True)
            % num_buckets).astype(np.int32)


# pandas factorizes str objects as C strings, so "a" and "a\x00b" are
# one category there (see the routing test below)
_text = st.text(st.characters(blacklist_characters="\x00"))
_cell = st.one_of(_text, st.none(), st.just(float("nan")), st.just(pd.NA),
                  st.integers(-2**63, 2**63 - 1), st.floats(),
                  st.binary(max_size=8))
# few distinct values, many repeats: the dictionary path's take-back
_repeats = st.lists(st.sampled_from(["a", "b", "", "\u00e9", None]),
                    max_size=40)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(st.lists(_text, max_size=20),
                        st.lists(st.binary(max_size=8), max_size=20),
                        st.lists(_cell, max_size=20), _repeats),
       num_buckets=st.integers(1, 300),
       form=st.sampled_from(["list", "arrow", "chunked"]))
@example(values=["\ud800"], num_buckets=1, form="arrow")
@example(values=["\ud800", "a"], num_buckets=3, form="list")
def test_stable_bucket_equals_categorized_hash(values, num_buckets, form):
    if form != "list":
        try:
            arr = pa.array(values)
        except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError,
                UnicodeEncodeError):  # lone surrogates are not UTF-8
            return
        half = len(values) // 2
        values = arr if form == "arrow" else \
            pa.chunked_array([arr[:half], arr[half:]], arr.type)
    elif values and all(isinstance(v, (str, bytes)) for v in values):
        values = np.array(values, dtype=object)
    got, want = (_outcome(f, values, num_buckets)
                 for f in (stable_bucket, _categorized_bucket))
    if isinstance(want, type):  # pandas cannot hash e.g. [0, b"\x80"]
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)


def _outcome(f, values, num_buckets):
    try:
        return f(values, num_buckets)
    except Exception as e:
        return type(e)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.text(), min_size=1, max_size=20),
       num_buckets=st.integers(1, 300))
@example(values=["", "\x00"], num_buckets=2)
def test_stable_bucket_routes_each_string_by_its_own_value(values,
                                                           num_buckets):
    """A key lands in the same bucket whatever else its array holds: a
    lookup buckets one key alone, staging buckets a whole block."""
    alone = [stable_bucket(np.array([v], dtype=object), num_buckets)[0]
             for v in values]
    np.testing.assert_array_equal(
        stable_bucket(np.array(values, dtype=object), num_buckets), alone)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
           st.lists(st.text(st.characters(blacklist_categories=["Cs"])),
                    min_size=1, max_size=20),
           st.lists(st.binary(max_size=8), min_size=1, max_size=20)),
       num_buckets=st.integers(1, 2**30))
@example(values=["a\x00", "b"], num_buckets=2**30)
@example(values=["a", "a\x00", "a\x00\x00"], num_buckets=7)
@example(values=[b"a\x00", b"b"], num_buckets=2**30)
def test_stable_bucket_list_tuple_and_arrow_agree(values, num_buckets):
    """A list or tuple of strings (or bytes) buckets as its Arrow array
    does, trailing NULs included: numpy's fixed-width strings would
    drop them."""
    want = stable_bucket(pa.array(values), num_buckets)
    np.testing.assert_array_equal(stable_bucket(list(values), num_buckets),
                                  want)
    np.testing.assert_array_equal(stable_bucket(tuple(values), num_buckets),
                                  want)
