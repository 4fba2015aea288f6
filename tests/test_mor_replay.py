"""The merge-on-read replay step and its satellites.

- ``_replay_step`` runs the default last-writer-wins policy through the
  Arrow kernel ``lww_apply_table``; a hypothesis property pins it to
  ``apply_changes`` (the pandas merge copy-on-write commits run) table
  for table and hash for hash. Other policies keep ``apply_changes``.
- Resolution hashes only where a caller asks: a point lookup hashes
  nothing, ``compact_deltas`` hashes each folded partition once.
- ``snapshot_content_hash`` is row-order independent, so it hashes the
  frame as given.
- ``lookup(as_of_epoch=e)`` buckets with manifest ``e``'s partition
  count, which a repartition since ``e`` has changed.
- A drain measures its per-epoch timings instead of dividing them.
- Every benchmark workload's smoke run agrees with the benchmark's own
  oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings, strategies as st

from chomper_ray.stages.merge import apply_changes, lww_apply_table
from chomper_ray.state import lake as lake_mod
from chomper_ray.state.lake import (LakeTable, StagedEpochs,
                                    _conform_snapshot, _replay_step,
                                    _snapshot_schema, load_manifest,
                                    plan_targets, snapshot_content_hash)

ROOT = Path(__file__).resolve().parents[1]
MOR_KW = {"merge_on_read": True, "collect_changes": False}
LWW = dict(key="url", version_ts="warc_ts", overwrite=True, protected=(),
           managed=False, insert_missing=True)

# the commit's target schema; "extra" is the evolved column that an
# older base or change file may lack
TARGET = pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                    ("lang", pa.string()), ("score", pa.float64()),
                    ("n", pa.int64()), ("extra", pa.string())])


def _ts(v):
    return None if v is None else pd.Timestamp(v, unit="s")


# small key, timestamp and seq domains make (key, warc_ts, seq) ties
# common, between change rows and between a base row and a change row
_keys = st.sampled_from(["a", "b", "c", "d", "e"])
_tsv = st.one_of(st.none(), st.integers(0, 3))
_lang = st.one_of(st.none(), st.sampled_from(["en", "de", ""]))
_score = st.one_of(st.none(), st.sampled_from([0.0, 1.5, -2.0, float("nan")]))
_n = st.one_of(st.none(), st.integers(-3, 3))

_base_row = st.fixed_dictionaries({
    "warc_ts": _tsv, "_seq": st.integers(0, 3), "_deleted": st.booleans(),
    "lang": _lang, "score": _score, "n": _n,
    "extra": st.one_of(st.none(), st.just("x"))})
_change_row = st.fixed_dictionaries({
    "url": st.one_of(_keys, st.just(None)),
    "op": st.sampled_from(["insert", "update", "delete"]),
    "seq": st.integers(0, 3), "warc_ts": _tsv, "lang": _lang,
    "score": _score, "n": _n, "extra": st.one_of(st.none(), st.just("y")),
    "junk": st.integers(0, 9)})


def _base_table(rows: dict, drop: list[str]) -> pa.Table:
    """A snapshot: one row per key (a dict key → row)."""
    schema = _snapshot_schema(TARGET, False)
    recs = [{"url": k, **r} for k, r in sorted(rows.items())]
    for r in recs:
        r["warc_ts"] = _ts(r["warc_ts"])
    tbl = pa.Table.from_pylist(recs, schema=schema)
    return tbl.drop_columns(drop)


def _change_table(rows: list[dict], drop: list[str]) -> pa.Table:
    schema = pa.schema([("op", pa.string()), ("seq", pa.int64()),
                        *[f for f in TARGET], ("junk", pa.int64())])
    recs = [dict(r, warc_ts=_ts(r["warc_ts"])) for r in rows]
    return pa.Table.from_pylist(recs, schema=schema).drop_columns(drop)


def _pandas_step(base: pa.Table, changes: pa.Table) -> pa.Table:
    """The copy-on-write merge's computation for one partition-epoch."""
    base = _conform_snapshot(base, TARGET, False)
    new, _ = apply_changes(base.to_pandas(), changes.to_pandas(),
                           key="url", version_ts="warc_ts",
                           commit_ts=pd.Timestamp(0), collect_changes=False)
    new = new.sort_values("url", kind="stable").reset_index(drop=True)
    out = _snapshot_schema(TARGET, False)
    return pa.Table.from_pandas(new[out.names], schema=out,
                                preserve_index=False)


@settings(max_examples=300, deadline=None)
@given(base=st.dictionaries(_keys, _base_row, max_size=5),
       changes=st.lists(_change_row, max_size=8),
       base_drop=st.sets(st.sampled_from(["extra", "score"])),
       change_drop=st.sets(st.sampled_from(["extra", "n", "junk"])))
def test_arrow_step_equals_apply_changes(base, changes, base_drop,
                                         change_drop):
    """Ties (change-vs-change and base-vs-change), deletes, late events
    against tombstones, re-inserts, null ``warc_ts``, NaN and null
    values, null keys, columns missing on either side and extra change
    columns, empty base and empty change set: the Arrow step returns the
    pandas step's table and hash."""
    b = _base_table(base, sorted(base_drop))
    c = _change_table(changes, sorted(change_drop))
    want = _pandas_step(b, c)
    got = _replay_step(b, c, TARGET, commit_ts_us=0, **LWW)
    assert got.schema.equals(want.schema)
    assert got.equals(want), (got.to_pandas(), want.to_pandas())
    assert snapshot_content_hash(got.to_pandas(), "url") == \
        snapshot_content_hash(want.to_pandas(), "url")


@settings(max_examples=300, deadline=None)
@given(base=st.dictionaries(_keys, _base_row, max_size=5),
       base_drop=st.sets(st.sampled_from(["extra", "score"])),
       change_drop=st.sets(st.sampled_from(["extra", "n", "junk"])))
def test_step_without_change_rows_equals_lww_apply_table(base, base_drop,
                                                         change_drop):
    """A step whose change side is empty (a key-filtered read of a delta
    that lacks the key) only conforms the base: the table
    ``lww_apply_table`` returns for an empty change side, across NaN
    and null values and an evolved target."""
    b = _base_table(base, sorted(base_drop))
    c = _change_table([], sorted(change_drop))
    want = lww_apply_table(_conform_snapshot(b, TARGET, False), c,
                           _snapshot_schema(TARGET, False), key="url",
                           version_ts="warc_ts")
    got = _replay_step(b, c, TARGET, commit_ts_us=0, **LWW)
    assert got.schema.equals(want.schema)
    assert got.equals(want), (got.to_pandas(), want.to_pandas())


def test_arrow_step_exact_tie_change_wins():
    """On an exact (key, warc_ts, seq) tie the change row wins, as the
    base-then-changes concat order makes it win in apply_changes."""
    b = _base_table({"a": {"warc_ts": 1, "_seq": 2, "_deleted": False,
                           "lang": "en", "score": 1.0, "n": 1,
                           "extra": None}}, [])
    c = _change_table([{"url": "a", "op": "update", "seq": 2, "warc_ts": 1,
                        "lang": "de", "score": None, "n": None,
                        "extra": None, "junk": 0}], [])
    got = _replay_step(b, c, TARGET, commit_ts_us=0, **LWW)
    assert got["lang"].to_pylist() == ["de"]
    assert got.equals(_pandas_step(b, c))


# -- merge-on-read lakes --------------------------------------------------

def _rows(epoch: int, urls: list[str], op: str = "upsert") -> list[dict]:
    return [{"op": op, "seq": epoch * 1000 + i, "url": u,
             "warc_ts": pd.Timestamp(100 + epoch, unit="s"),
             "lang": f"l{epoch}", "score": float(i)}
            for i, u in enumerate(urls)]


def _commit(lake, epoch, rows):
    return lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), epoch)


def _depth2_mor_lake(root) -> LakeTable:
    lake = LakeTable(root, key="url", num_partitions=2, **MOR_KW)
    urls = [f"https://example.com/{i}" for i in range(12)]
    _commit(lake, 0, _rows(0, urls))
    _commit(lake, 1, _rows(1, urls[::2]) + _rows(1, urls[1:4], "delete"))
    assert all(len(v["deltas"]) == 2
               for v in load_manifest(root)["partitions"].values())
    return lake


def test_mor_lookup_hashes_nothing(tmp_path, monkeypatch):
    lake = _depth2_mor_lake(tmp_path / "m")
    calls = []
    orig = lake_mod.snapshot_content_hash
    monkeypatch.setattr(lake_mod, "snapshot_content_hash",
                        lambda df, key: calls.append(1) or orig(df, key))
    hit = lake.lookup("https://example.com/0")
    gone = lake.lookup("https://example.com/1")
    assert hit["lang"].tolist() == ["l1"] and gone.empty
    assert calls == []


def test_compact_deltas_hashes_each_folded_partition_once(tmp_path,
                                                          monkeypatch):
    """The fold tasks run in Ray workers; the counting wrapper travels
    with the pickled task and appends one line per call to a file."""
    lake = _depth2_mor_lake(tmp_path / "m")
    want = lake.snapshot_hash()
    log = tmp_path / "hash_calls.txt"
    orig = lake_mod.snapshot_content_hash

    def counting(df, key, _log=str(log), _orig=orig):
        with open(_log, "a") as f:
            f.write("1\n")
        return _orig(df, key)

    monkeypatch.setattr(lake_mod, "snapshot_content_hash", counting)
    res = lake.compact_deltas()
    folded = res.partitions_touched
    n_calls = len(log.read_text().split()) if log.exists() else 0
    monkeypatch.undo()
    assert folded == 2
    assert n_calls == folded
    assert lake.snapshot_hash() == want


def test_non_default_policy_resolves_through_apply_changes(tmp_path,
                                                           monkeypatch):
    calls = []
    orig = lake_mod.apply_changes

    def counting(*a, **k):
        calls.append(1)
        return orig(*a, **k)

    urls = [f"https://example.com/{i}" for i in range(6)]
    epochs = [_rows(0, urls), _rows(1, urls[:3])]
    for e in epochs[1]:
        e["lang"] = None  # fill-null: the first truthy value sticks
    cow = LakeTable(tmp_path / "c", key="url", num_partitions=2,
                    collect_changes=False, overwrite=False)
    mor = LakeTable(tmp_path / "m", key="url", num_partitions=2,
                    overwrite=False, **MOR_KW)
    lww = LakeTable(tmp_path / "l", key="url", num_partitions=2, **MOR_KW)
    for e, rows in enumerate(epochs):
        for lake in (cow, mor, lww):
            _commit(lake, e, rows)
    monkeypatch.setattr(lake_mod, "apply_changes", counting)
    got = mor.read_pandas(include_deleted=True, include_internal=True)
    assert calls, "a non-default policy must replay through apply_changes"
    calls.clear()
    pd.testing.assert_frame_equal(
        got, cow.read_pandas(include_deleted=True, include_internal=True))
    assert got["lang"].tolist() == ["l0"] * 6
    assert lww.read_pandas()["lang"].isna().sum() == 3
    assert calls == [], "the default policy replays in Arrow"


# -- snapshot_content_hash ------------------------------------------------

def test_content_hash_is_row_order_independent():
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "url": [f"u{i:03d}" for i in range(50)],
        "score": rng.normal(size=50),
        "lang": [None if i % 7 == 0 else "en" for i in range(50)],
        "emb": [np.arange(3, dtype=np.float32) * i for i in range(50)]})
    shuffled = df.sample(frac=1, random_state=3)
    before = shuffled.copy()
    assert snapshot_content_hash(shuffled, "url") == \
        snapshot_content_hash(df, "url")
    # the list column is hashed by bytes without touching the caller's frame
    assert all(isinstance(v, np.ndarray) for v in shuffled["emb"])
    pd.testing.assert_frame_equal(shuffled, before)


# -- time travel across a repartition ---------------------------------------

def test_as_of_lookup_after_repartition(tmp_path):
    urls = [f"https://example.com/p/{i}" for i in range(90)]
    lake = LakeTable(tmp_path / "l", key="url", num_partitions=4,
                     collect_changes=False)
    _commit(lake, 0, _rows(0, urls))
    before = lake.last_committed_epoch()
    assert not lake.repartition_table(7).skipped
    assert load_manifest(lake.root)["num_partitions"] == 7
    for u in urls:
        then = lake.lookup(u, as_of_epoch=before)
        now = lake.lookup(u)
        assert len(then) == 1, u
        pd.testing.assert_frame_equal(then, now)


# -- drain timings ------------------------------------------------------------

def test_drain_timings_measured_per_epoch(tmp_path):
    """One staging job covers every epoch of a drain: its wall goes whole
    on the first epoch. The one merge job's wall is split by each epoch's
    share of the per-partition merge walls; the sums equal the totals."""
    lake = LakeTable(tmp_path / "l", key="url", num_partitions=8,
                     collect_changes=False)
    big = rd.from_arrow(pa.Table.from_pylist(
        _rows(0, [f"https://example.com/{i}" for i in range(400)])))
    small = rd.from_arrow(pa.Table.from_pylist(
        _rows(1, ["https://example.com/0"])))
    target = plan_targets(None, {0: big.schema()})[0]
    touched = {**lake.stage(big, {0: target}).touched,
               **lake.stage(small, {1: target}).touched}
    assert len(touched[0]) == 8 and len(touched[1]) == 1
    res = lake.commit_staged(StagedEpochs(None, {0: target, 1: target},
                                          touched, stage_s=1.5))
    assert [r.epoch for r in res] == [0, 1]
    assert [r.stage_s for r in res] == [1.5, 0.0]
    walls = [sum(row["wall_s"] for row in r.lineage) for r in res]
    merge = sum(r.merge_s for r in res)
    for r, w in zip(res, walls):
        assert r.merge_s == pytest.approx(merge * w / sum(walls))
        assert r.wall_s == pytest.approx(r.stage_s + r.merge_s)
        assert load_manifest(lake.root, r.commit_id)["wall_s"] == \
            round(r.wall_s, 4)
    assert res[0].merge_s > res[1].merge_s


# -- the benchmark's oracle in every test run --------------------------------

@pytest.mark.parametrize("workload",
                         ["mor_serve", "tail_index", "drain_backlog"])
def test_perfbench_smoke(workload):
    """One smoke round of a benchmark workload, checked against the
    benchmark's own oracle, which replays the generated events without
    the program: the merge-on-read lookups, view, folds and final read
    (``mor_serve``), the copy-on-write tail commit with its text-index
    hook (``tail_index``), and the backlog drain (``drain_backlog``)."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--smoke"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert '"failed": 0' in last, last
