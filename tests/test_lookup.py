"""Point lookups and the Parquet read helper under them.

- ``fs_read_table`` returns what ``pq.read_table`` returns for every
  (columns, filters) form the engine passes, on a POSIX path and on an
  object-store root, and refuses any other filter form and any column
  the file lacks.
- A lookup opens each file it needs once: one for a copy-on-write
  partition, base plus one per delta for a merge-on-read partition.
- ``lookup(k)`` is frame-equal to ``k``'s row of ``read_pandas()`` on
  both storage kinds, at merge-on-read chain depths 0, 1 and 2, across
  an evolution, tombstones, never-written keys, ``columns=`` and
  ``as_of_epoch``; an unknown column raises ``KeyError`` on both kinds.
"""

import math
import tempfile
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd
from hypothesis import example, given, settings, strategies as st

from chomper_ray.stages.merge import stable_bucket
from chomper_ray.state import fs as fs_mod
from chomper_ray.state import lake as lake_mod
from chomper_ray.state.fs import FsPath, fs_read_table, object_store_test_fs
from chomper_ray.state.lake import LakeTable, load_manifest

MOR_KW = {"merge_on_read": True, "collect_changes": False}
COW_KW = {"collect_changes": False}

# -- fs_read_table against pq.read_table -------------------------------------

_KEYS = [f"k{i:02d}" for i in range(12)]
_key = st.one_of(st.none(), st.sampled_from(_KEYS))
_rows = st.lists(st.tuples(_key, st.one_of(st.none(), st.integers(-5, 5)),
                           st.one_of(st.none(), st.floats(-1, 1))),
                 max_size=40)
_value = st.one_of(st.sampled_from(_KEYS + ["zz"]), st.none())
_columns = st.sampled_from([None, ["k"], ["v"], ["s", "k"], ["n", "v", "s"]])
# in-lists up to the 10k values the merge-on-read resolver pushes down;
# a long list is mostly keys no row has. (An all-null list is left out:
# pq.read_table itself raises on its null-typed value set.)
_in_list = st.one_of(
    st.lists(_value, min_size=1, max_size=8).filter(
        lambda vs: any(v is not None for v in vs)),
    st.integers(1, 10_000).map(
        lambda n: [f"k{i:02d}" if i < 12 else f"x{i}" for i in range(n)]))
_filters = st.one_of(
    st.none(),
    _value.map(lambda v: [("k", "=", v)]),
    _in_list.map(lambda vs: [("k", "in", vs)]),
    st.integers(-6, 6).map(lambda v: [("n", "=", v)]),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5).map(
        lambda vs: [("n", "in", vs)]))


def _table(rows) -> pa.Table:
    return pa.table({
        "k": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "v": pa.array([r[2] for r in rows], type=pa.float64()),
        "s": pa.array([f"s{i}" for i in range(len(rows))], type=pa.string()),
    }).replace_schema_metadata({"origin": "test"})


@settings(max_examples=150, deadline=None)
@given(rows=_rows, n_groups=st.integers(1, 4), stats=st.booleans(),
       store=st.booleans(), columns=_columns, filters=_filters)
def test_read_table_matches_pq_read_table(rows, n_groups, stats, store,
                                          columns, filters):
    """1-4 row groups, with and without statistics, null and repeated
    keys: the helper's table equals ``pq.read_table``'s, metadata
    included, on a POSIX path and on an object-store root."""
    tbl = _table(rows)
    rg = max(1, math.ceil(len(rows) / n_groups))
    with tempfile.TemporaryDirectory() as d:
        if store:
            fs = object_store_test_fs(d)
            p = FsPath(fs, "lake/f.parquet")
            pq.write_table(tbl, p.key, filesystem=fs, row_group_size=rg,
                           write_statistics=stats)
            want = pq.read_table(p.key, filesystem=fs, columns=columns,
                                 filters=filters)
        else:
            p = Path(d) / "f.parquet"
            pq.write_table(tbl, p, row_group_size=rg,
                           write_statistics=stats)
            want = pq.read_table(p, columns=columns, filters=filters)
        got = fs_read_table(p, columns=columns, filters=filters)
    assert got.equals(want, check_metadata=True), (got, want)


def _spy_row_group_reads(monkeypatch) -> list:
    """Record ``(row groups, columns)`` of every ``read_row_groups``."""
    read = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, rgs, columns=None, **kw):
        read.append((list(rgs), columns))
        return orig(self, rgs, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    return read


def test_read_table_prunes_row_groups_by_statistics(tmp_path, monkeypatch):
    """Each filtered read decodes the key column of the row groups the
    statistics keep, then the other columns of the same row groups."""
    p = tmp_path / "f.parquet"
    pq.write_table(_table([(k, 0, 0.0) for k in _KEYS]), p, row_group_size=3)
    read = _spy_row_group_reads(monkeypatch)
    assert fs_read_table(p, filters=[("k", "=", "k04")])["k"].to_pylist() \
        == ["k04"]
    assert fs_read_table(p, filters=[("k", "in", ["k00", "k11"])]) \
        .num_rows == 2
    assert read == [([1], ["k"]), ([1], ["n", "v", "s"]),
                    ([0, 3], ["k"]), ([0, 3], ["n", "v", "s"])]


def test_read_table_miss_decodes_only_the_key(tmp_path, monkeypatch):
    """A key inside a row group's min/max range that no row holds, and
    one outside every range: neither decodes a column but the key."""
    p = tmp_path / "f.parquet"
    keys = [k for k in _KEYS if k != "k04"]
    pq.write_table(_table([(k, 0, 0.0) for k in keys]), p, row_group_size=3)
    read = _spy_row_group_reads(monkeypatch)
    for v, cols in (("k04", None), ("k04", ["s", "k"]), ("zz", None)):
        got = fs_read_table(p, columns=cols, filters=[("k", "=", v)])
        assert got.num_rows == 0
        assert got.column_names == (cols or ["k", "n", "v", "s"])
    assert read == [([1], ["k"]), ([1], ["k"])]


def test_read_table_threads_only_large_reads(tmp_path, monkeypatch):
    """Kept row groups holding fewer than ``_THREADED_ROWS`` rows decode
    on the calling thread; larger ones through Arrow's pool."""
    threads = []
    orig = pq.ParquetFile.read_row_groups

    def spy(self, rgs, columns=None, use_threads=True, **kw):
        threads.append(use_threads)
        return orig(self, rgs, columns=columns, use_threads=use_threads,
                    **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", spy)
    n = fs_mod._THREADED_ROWS
    p = tmp_path / "f.parquet"
    pq.write_table(_table([("k01", i, 0.0) for i in range(n)]), p,
                   row_group_size=n - 1)
    for v, want in (("k01", [True, True]), ("k00", [])):
        threads.clear()
        fs_read_table(p, filters=[("k", "=", v)])
        assert threads == want
    pq.write_table(_table([("k01", i, 0.0) for i in range(n - 1)]), p)
    threads.clear()
    fs_read_table(p, filters=[("k", "in", ["k01"])])
    assert threads == [False, False]


@pytest.mark.parametrize("filters", [
    [("k", "<", "k01")], [("k", "==", "k01")], [[("k", "=", "k01")]],
    [("k", "=", "k01"), ("n", "=", 0)], ("k", "=", "k01"),
    [("k", "in", "k01")], [("k", "in", 3)]])
def test_read_table_refuses_other_filter_forms(tmp_path, filters):
    p = tmp_path / "f.parquet"
    pq.write_table(_table([("k01", 0, 0.0)]), p)
    with pytest.raises(ValueError, match="unsupported filter|'in' filter"):
        fs_read_table(p, filters=filters)


def test_read_table_refuses_unknown_columns(tmp_path):
    p = tmp_path / "f.parquet"
    pq.write_table(_table([("k01", 0, 0.0)]), p)
    with pytest.raises(KeyError, match="zzz"):
        fs_read_table(p, columns=["k", "zzz"])
    with pytest.raises(KeyError, match="zzz"):
        fs_read_table(p, filters=[("zzz", "=", 1)])


# -- the one-key bucket --------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(value=st.one_of(st.text(st.characters(blacklist_categories=["Cs"])),
                       st.binary()),
       num_buckets=st.integers(1, 300))
@example(value="a\x00", num_buckets=7)
@example(value="\x00", num_buckets=7)
@example(value="", num_buckets=7)
@example(value="\u00e9\u4e2d\U0001f600", num_buckets=7)
@example(value=b"a\x00", num_buckets=7)
def test_one_key_bucket_equals_array_path(value, num_buckets):
    """A lookup's single key (NUL, empty, non-ASCII strings, bytes)
    lands in the bucket staging's Arrow path gives it."""
    want = int(stable_bucket(pa.array([value]), num_buckets)[0])
    assert int(stable_bucket([value], num_buckets)[0]) == want
    assert int(stable_bucket((value,), num_buckets)[0]) == want


# -- lakes ---------------------------------------------------------------------

URLS = [f"https://example.com/{i}" for i in range(30)]
NEVER = [f"https://example.com/never/{i}" for i in range(3)]


def _events(epoch: int, urls: list[str], op: str = "upsert",
            extra: bool = False) -> list[dict]:
    out = []
    for i, u in enumerate(urls):
        r = {"op": op, "seq": epoch * 1000 + i, "url": u,
             "warc_ts": pd.Timestamp(100 + epoch, unit="s"),
             "lang": f"l{epoch}", "score": float(i)}
        if extra:
            r["extra"] = f"x{epoch}-{i}"
        out.append(r)
    return out


# epoch 1 deletes and adds keys; epoch 2 evolves the schema ("extra") on
# a few partitions only, deletes one key and re-inserts a deleted one
EPOCHS = [
    _events(0, URLS[:24]),
    _events(1, URLS[::3]) + _events(1, URLS[1:5], "delete")
    + _events(1, URLS[24:26]),
    _events(2, URLS[2:4] + URLS[26:27], extra=True)
    + _events(2, [URLS[7]], "delete") + _events(2, [URLS[1]], extra=True),
]


def _commit(lake, epoch: int) -> None:
    lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(EPOCHS[epoch])),
                      epoch)


def _max_depth(lake) -> int:
    parts = load_manifest(lake.root)["partitions"].values()
    return max(len(p.get("deltas", [])) for p in parts)


def _assert_lookups_equal_rows(lake, want: pd.DataFrame, as_of=None):
    colsets = [["lang"], ["score", "url"]]
    if "extra" in want.columns:
        colsets.append(["extra", "lang"])
    for u in URLS + NEVER:
        row = want[want["url"] == u].reset_index(drop=True)
        got = lake.lookup(u, as_of_epoch=as_of)
        pd.testing.assert_frame_equal(got, row, obj=u)
        assert isinstance(got.index, pd.RangeIndex)
        for cols in colsets:
            pd.testing.assert_frame_equal(
                lake.lookup(u, columns=cols, as_of_epoch=as_of), row[cols],
                obj=f"{u} {cols}")


def assert_lookup_identity_matrix(root, kind: str) -> None:
    """Build a lake of ``kind`` under ``root`` commit by commit and check
    every key's lookup against ``read_pandas()`` after each commit, then
    every earlier head through ``as_of_epoch``."""
    mor = kind == "mor"
    lake = LakeTable(root, key="url", num_partitions=4,
                     **(MOR_KW if mor else COW_KW))
    heads = []
    for e in range(len(EPOCHS)):
        _commit(lake, e)
        if mor and e == 0:
            lake.compact_deltas()
        if mor:
            assert _max_depth(lake) == e
        want = lake.read_pandas()
        assert ("extra" in want.columns) == (e == 2)
        _assert_lookups_equal_rows(lake, want)
        heads.append((lake.last_committed_epoch(), want))
    for head, want in heads[:-1]:
        _assert_lookups_equal_rows(lake, want, as_of=head)


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_equals_read_pandas_row(tmp_path, kind):
    assert_lookup_identity_matrix(tmp_path / "lake", kind)


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_unknown_column_raises_key_error(tmp_path, kind):
    lake = LakeTable(tmp_path / "lake", key="url", num_partitions=2,
                     **(MOR_KW if kind == "mor" else COW_KW))
    _commit(lake, 0)
    with pytest.raises(KeyError, match="zzz"):
        lake.lookup(URLS[0], columns=["lang", "zzz"])


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_opens_each_file_once(tmp_path, monkeypatch, kind):
    """Copy-on-write: the one snapshot. Merge-on-read at chain depth 2:
    the base and the two deltas, with or without ``columns=``."""
    mor = kind == "mor"
    lake = LakeTable(tmp_path / "lake", key="url", num_partitions=1,
                     **(MOR_KW if mor else COW_KW))
    _commit(lake, 0)
    if mor:
        lake.compact_deltas()
    _commit(lake, 1)
    _commit(lake, 2)
    assert _max_depth(lake) == (2 if mor else 0)
    opened = []
    orig = fs_mod.fs_parquet_file

    def counting(p):
        opened.append(str(p))
        return orig(p)

    monkeypatch.setattr(fs_mod, "fs_parquet_file", counting)
    monkeypatch.setattr(lake_mod, "fs_parquet_file", counting)
    for columns in (None, ["lang"]):
        opened.clear()
        assert len(lake.lookup(URLS[0], columns=columns)) == 1
        assert len(opened) == (3 if mor else 1), opened
        assert len(set(opened)) == len(opened)


# -- keys a lookup cannot find, and epochs it cannot read -----------------------

def _lake_of(root, kind: str, epochs: int = 2) -> LakeTable:
    lake = LakeTable(root, key="url", num_partitions=4,
                     **(MOR_KW if kind == "mor" else COW_KW))
    for e in range(epochs):
        _commit(lake, e)
    return lake


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_null_key_finds_nothing(tmp_path, kind):
    """LWW drops null keys, so no row answers a null key: the frame is
    a never-written key's, not the rows of the partition null hashes
    to."""
    lake = _lake_of(tmp_path / "lake", kind)
    miss = lake.lookup(NEVER[0])
    assert len(miss) == 0 and list(miss.columns) == \
        list(lake.read_pandas().columns)
    for k in (None, pd.NA):
        pd.testing.assert_frame_equal(lake.lookup(k), miss)
        pd.testing.assert_frame_equal(lake.lookup(k, columns=["lang"]),
                                      miss[["lang"]])


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_key_of_wrong_type_raises_type_error(tmp_path, kind):
    """A value the string key column cannot hold raises one
    ``TypeError`` naming the column and its type; ``bytes`` of a key
    find its row."""
    lake = _lake_of(tmp_path / "lake", kind)
    for k in (5, 1.5, True):
        with pytest.raises(TypeError, match="key column 'url' of type "
                                            "string"):
            lake.lookup(k)
    pd.testing.assert_frame_equal(lake.lookup(URLS[0].encode()),
                                  lake.lookup(URLS[0]))


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_finds_keys_ending_in_nul(tmp_path, kind):
    """A key ending in NUL routes by its whole value, as staging routed
    it: the lookup finds its row."""
    urls = [f"https://example.com/nul/{i}" + "\x00" * (1 + i % 2)
            for i in range(8)]
    lake = LakeTable(tmp_path / "lake", key="url", num_partitions=4,
                     **(MOR_KW if kind == "mor" else COW_KW))
    ev = _events(0, urls)
    lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(ev)), 0)
    for r in ev:
        got = lake.lookup(r["url"], columns=["url", "lang", "score"])
        assert got.to_dict("records") == \
            [{"url": r["url"], "lang": "l0", "score": r["score"]}]


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_as_of_missing_epoch_raises_value_error(tmp_path, kind):
    lake = _lake_of(tmp_path / "lake", kind, epochs=3)
    for e in (99, -1, 3):
        with pytest.raises(ValueError, match=rf"as_of_epoch={e} .*"
                                             r"committed: \[0, 1, 2\]"):
            lake.lookup(URLS[0], as_of_epoch=e)
    lake.compact(keep_epochs=1)
    with pytest.raises(ValueError, match=r"as_of_epoch=0 .*committed: \[2\]"):
        lake.lookup(URLS[0], as_of_epoch=0)
    pd.testing.assert_frame_equal(lake.lookup(URLS[0], as_of_epoch=2),
                                  lake.lookup(URLS[0]))


# -- the head-manifest cache ---------------------------------------------------

@pytest.mark.parametrize("store", [False, True], ids=["posix", "mock"])
@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_lookup_head_cache_sees_every_change(tmp_path, monkeypatch, kind,
                                             store):
    """One reading ``LakeTable`` keeps looking up while another table
    commits, deletes, compacts, folds, repartitions, commits past a gap
    in the chain ids, and the root is wiped and rebuilt to the same head
    id: every lookup equals ``read_pandas()``'s row, and the reader
    parses the head once per change and never in between."""
    from chomper_ray.functions.expr import F
    from chomper_ray.state.fs import fs_exists, fs_rmtree

    root = FsPath(object_store_test_fs(tmp_path / "store"), "lake") \
        if store else tmp_path / "lake"
    kw = MOR_KW if kind == "mor" else COW_KW
    parses = []
    orig = lake_mod._ReadManifest.parse.__func__
    monkeypatch.setattr(lake_mod._ReadManifest, "parse", classmethod(
        lambda cls, epoch, text: parses.append(epoch) or
        orig(cls, epoch, text)))
    reader = LakeTable(root, key="url", **kw)

    def check(changed: bool = True):
        parses.clear()
        _assert_lookups_equal_rows(reader, LakeTable(root, **kw)
                                   .read_pandas())
        assert parses == ([reader.last_committed_epoch()] if changed
                          else []), parses

    writer = LakeTable(root, key="url", num_partitions=4, **kw)
    _commit(writer, 0)
    check()
    check(changed=False)
    _commit(writer, 1)
    check()
    if kind == "mor":
        writer.compact_deltas()
        check()
    writer.delete_where(F("lang") == "l1", version_ts_us=10**18)
    check()
    if kind == "mor":
        writer.compact_deltas()
        check()
    writer.compact(keep_epochs=1)
    check(changed=False)
    moved = [u for u in URLS
             if lake_mod.stable_bucket([u], 4)[0]
             != lake_mod.stable_bucket([u], 7)[0]]
    assert moved
    writer.repartition_table(7)
    check()
    assert reader.num_partitions == 7
    head = writer.last_committed_epoch()
    writer.commit_epoch(rd.from_arrow(pa.Table.from_pylist(EPOCHS[2])),
                        head + 3)
    assert writer.last_committed_epoch() == head + 3
    assert not fs_exists(lake_mod._manifest_path(root, head + 1))
    check()
    head = writer.last_committed_epoch()
    fs_rmtree(root)
    rebuilt = LakeTable(root, key="url", num_partitions=4, **kw)
    rebuilt.commit_epoch(rd.from_arrow(pa.Table.from_pylist(EPOCHS[0][:9])),
                         head)
    assert rebuilt.last_committed_epoch() == head
    check()
    assert reader.num_partitions == 4
