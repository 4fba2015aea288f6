"""LWW merge primitives + per-partition apply semantics.

Upsert semantics mirror /root/reference/chomper/contrib/sql/exporters.py:
202-322 (overwrite vs fill-null-only, protected columns, managed
timestamps) and the listener matrix at tests/test_sql.py:177-210."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from chomper_ray.stages.merge import (
    INTERNAL_DELETED, INTERNAL_SEQ, add_bucket, apply_changes,
    lww_dedup_table, lww_changeset, stable_bucket,
)


def ts(sec):
    return pd.Timestamp(sec, unit="s")


def events(rows):
    """rows: (op, seq, url, ts_sec, text)"""
    return pd.DataFrame(
        [{"op": o, "seq": s, "url": u, "warc_ts": ts(t), "text": x}
         for (o, s, u, t, x) in rows]
    )


def empty_base(managed=False):
    cols = {"url": pd.Series(dtype=object),
            "warc_ts": pd.Series(dtype="datetime64[us]"),
            "text": pd.Series(dtype=object),
            INTERNAL_SEQ: pd.Series(dtype="int64"),
            INTERNAL_DELETED: pd.Series(dtype=bool)}
    if managed:
        cols["created_at"] = pd.Series(dtype="datetime64[us]")
        cols["updated_at"] = pd.Series(dtype="datetime64[us]")
    return pd.DataFrame(cols)


class TestLwwDedupTable:
    def test_keeps_max_version(self):
        t = pa.table({"url": ["a", "b", "a"], "warc_ts": [1, 5, 3], "seq": [0, 1, 2]})
        out = lww_dedup_table(t)
        assert sorted(zip(out["url"].to_pylist(), out["warc_ts"].to_pylist())) == \
            [("a", 3), ("b", 5)]

    def test_tie_broken_by_seq(self):
        t = pa.table({"url": ["a", "a"], "warc_ts": [7, 7], "seq": [2, 9]})
        out = lww_dedup_table(t)
        assert out["seq"].to_pylist() == [9]

    def test_single_row_and_empty(self):
        t = pa.table({"url": ["a"], "warc_ts": [1], "seq": [0]})
        assert lww_dedup_table(t).num_rows == 1
        assert lww_dedup_table(t.slice(0, 0)).num_rows == 0


class TestBuckets:
    def test_stable_across_calls_and_dtypes(self):
        v = ["a", "b", "c", "a"]
        b1 = stable_bucket(v, 8)
        b2 = stable_bucket(pa.chunked_array([pa.array(v)]), 8)
        assert list(b1) == list(b2)
        assert b1[0] == b1[3]

    def test_add_bucket_column(self):
        t = pa.table({"url": ["a", "b"]})
        out = add_bucket(t, "url", 4)
        assert out["_bucket"].type == pa.int32()
        assert all(0 <= b < 4 for b in out["_bucket"].to_pylist())


def test_lww_changeset_dataset_global():
    import ray.data as rd

    rng = np.random.default_rng(7)
    n, keys = 5000, 300
    t = pa.table({
        "url": [f"u{k}" for k in rng.integers(0, keys, n)],
        "warc_ts": rng.integers(0, 10**6, n),
        "seq": np.arange(n, dtype=np.int64),
    })
    ds = rd.from_arrow(t).repartition(8)
    out = lww_changeset(ds, num_buckets=4).to_pandas()
    assert len(out) == len(set(t["url"].to_pylist()))
    # oracle: pandas idxmax over (warc_ts, seq)
    df = t.to_pandas().sort_values(["url", "warc_ts", "seq"]).groupby("url").tail(1)
    exp = df.set_index("url")["seq"].sort_index()
    got = out.set_index("url")["seq"].sort_index()
    assert (exp == got).all()


class TestApplyChanges:
    def test_insert_then_update_lww(self):
        ch = events([("insert", 0, "a", 10, "v1"), ("update", 1, "a", 20, "v2"),
                     ("insert", 2, "b", 15, "w1")])
        new, ev = apply_changes(empty_base(), ch)
        snap = new.set_index("url")
        assert snap.loc["a", "text"] == "v2"
        assert snap.loc["b", "text"] == "w1"
        assert not snap[INTERNAL_DELETED].any()

    def test_out_of_order_event_loses(self):
        base, _ = apply_changes(empty_base(),
                                events([("insert", 5, "a", 100, "new")]),
                                collect_changes=False)
        new, _ = apply_changes(base, events([("update", 9, "a", 50, "old")]),
                               collect_changes=False)
        assert new.set_index("url").loc["a", "text"] == "new"

    def test_delete_tombstones_and_blocks_resurrection(self):
        base, _ = apply_changes(empty_base(),
                                events([("insert", 0, "a", 10, "v1")]),
                                collect_changes=False)
        base2, _ = apply_changes(base, events([("delete", 1, "a", 20, None)]),
                                 collect_changes=False)
        assert base2[INTERNAL_DELETED].tolist() == [True]
        # an older late event must NOT resurrect the key
        base3, _ = apply_changes(base2, events([("update", 2, "a", 15, "late")]),
                                 collect_changes=False)
        assert base3[INTERNAL_DELETED].tolist() == [True]

    def test_fill_null_only_policy(self):
        # reference exporters.py:238-241 / test_sql.py:167-175
        base, _ = apply_changes(
            empty_base(), events([("insert", 0, "a", 10, None)]),
            collect_changes=False)
        new, _ = apply_changes(base, events([("update", 1, "a", 20, "filled")]),
                               overwrite=False, collect_changes=False)
        row = new.set_index("url").loc["a"]
        assert row["text"] == "filled"  # null got filled
        assert row[INTERNAL_SEQ] == 1   # version advances
        new2, _ = apply_changes(new, events([("update", 2, "a", 30, "clobber")]),
                                overwrite=False, collect_changes=False)
        assert new2.set_index("url").loc["a", "text"] == "filled"  # kept

    def test_protected_columns_never_touched(self):
        # reference exporters.py:50-54, 119-120
        base, _ = apply_changes(empty_base(),
                                events([("insert", 0, "a", 10, "orig")]),
                                collect_changes=False)
        new, _ = apply_changes(base, events([("update", 1, "a", 20, "evil")]),
                               protected=("text",), collect_changes=False)
        assert new.set_index("url").loc["a", "text"] == "orig"

    def test_managed_timestamps(self):
        # reference exporters.py:124-145, 160-161 / test_sql.py:116-128
        t1, t2 = pd.Timestamp("2020-01-01"), pd.Timestamp("2020-06-01")
        base, _ = apply_changes(empty_base(managed=True),
                                events([("insert", 0, "a", 10, "x")]),
                                managed_timestamps=True, commit_ts=t1,
                                collect_changes=False)
        r = base.set_index("url").loc["a"]
        assert r["created_at"] == t1 and r["updated_at"] == t1
        new, _ = apply_changes(base, events([("update", 1, "a", 20, "y")]),
                               managed_timestamps=True, commit_ts=t2,
                               collect_changes=False)
        r = new.set_index("url").loc["a"]
        assert r["created_at"] == t1      # preserved on update
        assert r["updated_at"] == t2      # advanced on write

    def test_order_shuffle_property(self):
        # LWW with (warc_ts, seq) version is order-independent (SURVEY §7.6)
        rng = np.random.default_rng(3)
        rows = [("insert" if i % 5 else "delete", i, f"u{rng.integers(0, 20)}",
                 int(rng.integers(0, 100)), f"t{i}") for i in range(200)]
        ch = events(rows)
        ref, _ = apply_changes(empty_base(), ch, collect_changes=False)
        for seed in (1, 2):
            sh = ch.sample(frac=1.0, random_state=seed).reset_index(drop=True)
            out, _ = apply_changes(empty_base(), sh, collect_changes=False)
            pd.testing.assert_frame_equal(
                ref.sort_values("url").reset_index(drop=True)[sorted(ref.columns)],
                out.sort_values("url").reset_index(drop=True)[sorted(out.columns)],
            )


class TestChangeListeners:
    """Matrix from /root/reference/tests/test_sql.py:177-210."""

    def test_insert_fires_insert_and_all_field_changes(self):
        # on insert, every present column fires change.<field>
        # (exporters.py:303-305)
        _, ev = apply_changes(empty_base(),
                              events([("insert", 0, "a", 10, "x")]))
        got = set(map(tuple, ev[["field", "event"]].fillna("").values))
        assert ("", "insert") in got
        assert ("text", "change") in got
        assert ("warc_ts", "change") in got
        assert ("", "update") not in got

    def test_update_fires_only_changed_fields(self):
        # unchanged column does NOT fire (test_sql.py:208)
        base, _ = apply_changes(empty_base(),
                                events([("insert", 0, "a", 10, "same")]),
                                collect_changes=False)
        _, ev = apply_changes(base, events([("update", 1, "a", 20, "same")]))
        got = set(map(tuple, ev[["field", "event"]].fillna("").values))
        assert ("", "update") in got
        assert ("text", "change") not in got       # value unchanged
        assert ("warc_ts", "change") in got        # version changed

    def test_delete_fires_delete(self):
        base, _ = apply_changes(empty_base(),
                                events([("insert", 0, "a", 10, "x")]),
                                collect_changes=False)
        _, ev = apply_changes(base, events([("delete", 1, "a", 20, None)]))
        got = set(map(tuple, ev[["field", "event"]].fillna("").values))
        assert ("", "delete") in got


def test_protected_not_restored_from_tombstone():
    """A protected column on a re-inserted key keeps the NEW value — the
    tombstoned prior row doesn't 'exist' for never-touch purposes."""
    base, _ = apply_changes(empty_base(),
                            events([("insert", 0, "a", 10, "orig"),
                                    ("delete", 1, "a", 20, None)]),
                            collect_changes=False)
    assert base[INTERNAL_DELETED].tolist() == [True]
    new, _ = apply_changes(base, events([("insert", 2, "a", 30, "fresh")]),
                           protected=("text",), collect_changes=False)
    row = new.set_index("url").loc["a"]
    assert row["text"] == "fresh" and not row[INTERNAL_DELETED]


def test_fill_null_overwrites_falsy_like_reference():
    """ADVICE r01: reference overwrite(False) excludes only TRUTHY current
    values (exporters.py:239) — existing 0 / '' / False ARE overwritten."""
    import pandas as pd

    base = pd.DataFrame({
        "url": ["a", "b", "c"],
        "warc_ts": [10, 10, 10],
        "n": [0, 7, None],
        "text": ["", "keep", None],
        INTERNAL_SEQ: [0, 0, 0],
        INTERNAL_DELETED: [False, False, False],
    })
    ch = pd.DataFrame({
        "op": ["update"] * 3, "seq": [1, 2, 3],
        "url": ["a", "b", "c"], "warc_ts": [20, 20, 20],
        "n": [5, 9, 4], "text": ["set", "clobber", "fill"],
    })
    new, _ = apply_changes(base, ch, overwrite=False, collect_changes=False)
    snap = new.set_index("url")
    assert snap.loc["a", "n"] == 5          # falsy 0 overwritten
    assert snap.loc["a", "text"] == "set"   # falsy '' overwritten
    assert snap.loc["b", "n"] == 7          # truthy kept
    assert snap.loc["b", "text"] == "keep"  # truthy kept
    assert snap.loc["c", "n"] == 4          # null filled
    assert snap.loc["c", "text"] == "fill"


@pytest.mark.filterwarnings("error::FutureWarning")
def test_apply_changes_concat_dtypes_need_no_skipping():
    """pandas 2.x warns that concat will stop skipping empty and all-null
    columns when it picks dtypes. The merge gives it none to skip: not
    on a partition's first commit (empty base), not when a change-only
    numeric column arrives (schema evolution), not when the change rows
    lack a column the base has."""
    base, ev = apply_changes(
        empty_base(), events([("insert", 0, "a", 1, "x"),
                              ("insert", 1, "b", 1, "y")]))
    assert base.sort_values("url")["text"].tolist() == ["x", "y"]
    assert set(ev["event"]) == {"insert", "change"}
    managed, _ = apply_changes(
        empty_base(managed=True), events([("insert", 0, "a", 1, "x")]),
        managed_timestamps=True, commit_ts=ts(100))
    assert managed["created_at"].tolist() == [ts(100)]

    ch = events([("update", 2, "a", 2, "x2")]).assign(
        status=[200.0], seen=[ts(5)])
    new, ev = apply_changes(base, ch)
    got = new.set_index("url")
    assert got.loc["a", "status"] == 200 and pd.isna(got.loc["b", "status"])
    assert got.loc["a", "seen"] == ts(5) and pd.isna(got.loc["b", "seen"])
    assert sorted(ev.loc[ev["event"] == "change", "field"]) == \
        ["seen", "status", "text", "warc_ts"]

    later, _ = apply_changes(new, events([("update", 3, "b", 3, "y2")]))
    got = later.set_index("url")
    assert got.loc["b", "text"] == "y2" and got.loc["a", "status"] == 200


def test_empty_change_side_keeps_base_dtypes():
    """An update-only merge (``insert_missing=False``) whose change rows
    all miss the base leaves nothing on the change side; the base rows
    keep their dtypes, so an int64 above 2**53 survives exactly."""
    base, _ = apply_changes(empty_base(), events([("insert", 0, "a", 1, "x")]))
    base["n"] = pd.Series([2**60 + 3], dtype="int64")
    ch = events([("update", 1, "zz", 2, "y")]).assign(
        n=pd.Series([None], dtype="float64"))
    new, _ = apply_changes(base, ch, insert_missing=False)
    assert new["n"].tolist() == [2**60 + 3]
