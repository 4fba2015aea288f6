"""End-to-end CDC: generator → extract → LWW upsert → manifest lake.

Verifies the north-star invariants (BASELINE.json):
- final table state matches a row-at-a-time oracle upsert (the
  reference's SELECT→UPDATE/INSERT loop, contrib/postgres.py:374-386),
  including byte-identical extracted text per url;
- exactly-once: replaying committed epochs is a no-op (identical
  snapshot hash);
- resume from any mid-stream checkpoint converges to the same state;
- schema evolution (additive column + int widening) across epochs;
- lineage rows exist per (partition, epoch).
"""

import pandas as pd
import pyarrow.parquet as pq
import pytest

from chomper_ray.functions.extract import extract_text
from chomper_ray.pipelines.cdc import run_cdc
from chomper_ray.sources import events as ev
from chomper_ray.state.lake import LakeTable


@pytest.fixture(scope="module")
def change_log(tmp_path_factory):
    d = tmp_path_factory.mktemp("log")
    ev.generate_change_stream(
        d, n_events=3000, n_urls=400, n_epochs=4, seed=11,
        delete_frac=0.06, ooo_frac=0.15, evolution_epoch=2,
    )
    return d


def oracle_upsert(log_dir):
    """Row-at-a-time reference-style upsert: arrival order by (epoch, seq),
    winner by (warc_ts, seq); deletes tombstone. Returns {url: row}."""
    state: dict[str, dict] = {}
    for e in ev.list_epochs(log_dir):
        for f in ev.epoch_files(log_dir, e):
            for row in pq.read_table(f).to_pylist():
                url = row["url"]
                ver = (row["warc_ts"], row["seq"])
                cur = state.get(url)
                if cur is not None and (cur["warc_ts"], cur["_seq"]) >= ver:
                    continue
                new = {
                    "url": url, "warc_ts": row["warc_ts"],
                    "text": extract_text(row["html"]), "lang": row["lang"],
                    "fetch_status": row.get("fetch_status"),
                    "extra_score": row.get("extra_score"),
                    "_seq": row["seq"], "_deleted": row["op"] == "delete",
                }
                state[url] = new
    return state


def test_cdc_end_to_end_matches_oracle(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    res = run_cdc(change_log, lake_root, num_partitions=8)
    assert res.epochs_run == [0, 1, 2, 3]
    assert res.events_applied > 0

    lake = LakeTable(lake_root, num_partitions=8)
    got = lake.read_pandas(include_deleted=True, include_internal=True)
    oracle = oracle_upsert(change_log)
    assert len(got) == len(oracle)

    got = got.set_index("url")
    for url, exp in oracle.items():
        row = got.loc[url]
        assert bool(row["_deleted"]) == exp["_deleted"], url
        assert int(row["_seq"]) == exp["_seq"], url
        if not exp["_deleted"]:
            # byte-identical extracted text per url — the core invariant
            assert (row["text"] or "").encode() == (exp["text"] or "").encode(), url
            assert row["lang"] == exp["lang"]
            assert pd.Timestamp(row["warc_ts"]) == pd.Timestamp(exp["warc_ts"])

    # live read excludes tombstones and internals
    live = lake.read_pandas()
    n_live = sum(1 for v in oracle.values() if not v["_deleted"])
    assert len(live) == n_live
    assert "_deleted" not in live.columns


def test_schema_evolution_across_epochs(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root, num_partitions=4)
    schema = lake.current_schema()
    # int32 fetch_status widened to int64; extra_score joined as nullable
    assert str(schema.field("fetch_status").type) == "int64"
    assert "extra_score" in schema.names
    df = lake.read_pandas()
    # rows last written before the evolution epoch have null extra_score
    assert df["extra_score"].isna().any()
    assert df["extra_score"].notna().any()


def test_replay_is_noop_and_hash_stable(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root, num_partitions=4)
    h1 = lake.snapshot_hash()
    res2 = run_cdc(change_log, lake_root, num_partitions=4)  # full replay
    assert res2.epochs_run == [] and res2.epochs_skipped == []
    # force re-commit attempt of a committed epoch directly → skipped
    ds = ev.read_epoch(change_log, 0)
    assert lake.commit_epoch(ds, 0).skipped
    assert lake.snapshot_hash() == h1


def test_resume_from_checkpoint_equals_full_run(change_log, tmp_path):
    full_root = tmp_path / "full"
    run_cdc(change_log, full_root, num_partitions=4)
    h_full = LakeTable(full_root, num_partitions=4).snapshot_hash()

    part_root = tmp_path / "partial"
    run_cdc(change_log, part_root, num_partitions=4, max_epochs=2)
    lake = LakeTable(part_root, num_partitions=4)
    assert lake.last_committed_epoch() == 1
    run_cdc(change_log, part_root, num_partitions=4)  # resume
    assert lake.last_committed_epoch() == 3
    assert lake.snapshot_hash() == h_full


def test_lineage_and_change_events(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root, num_partitions=4)
    lin = lake.lineage()
    assert set(lin["epoch"]) == {0, 1, 2, 3}
    assert (lin["events_in"] > 0).all()
    assert lin["wall_s"].notna().all()

    evs = lake.change_events()
    assert set(evs["event"]) >= {"insert", "update", "change"}
    # row-level insert events = first-touch count of each live/deleted url
    n_inserts = len(evs[(evs["event"] == "insert") & (evs["field"].isna())])
    assert n_inserts > 0


def test_num_partitions_layout(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=8)
    files = LakeTable(lake_root, num_partitions=8).files()
    assert 1 < len(files) <= 8


def _layout_free(obj):
    """A manifest without the figures that depend on how the run was
    executed: measured walls, and ``events_in``, which counts staged
    rows after the per-block combiner and so follows Ray's read block
    boundaries (a drain reads bigger blocks than one epoch's read)."""
    if isinstance(obj, dict):
        return {k: _layout_free(v) for k, v in obj.items()
                if k not in ("wall_s", "events_in")}
    if isinstance(obj, list):
        return [_layout_free(v) for v in obj]
    return obj


@pytest.mark.parametrize("lake_kwargs", [
    {}, {"merge_on_read": True, "collect_changes": False}, {"id_field": "id"},
], ids=["cow", "mor", "id_field"])
def test_drain_mode_equals_sequential(change_log, tmp_path, lake_kwargs):
    """Backlog-drain (single staging pass over all epochs) must write the
    same lake as sequential per-epoch commits: every data file byte for
    byte, every manifest but its execution-dependent figures."""
    import json

    seq_root, drain_root = tmp_path / "seq", tmp_path / "drain"
    run_cdc(change_log, seq_root, num_partitions=4, lake_kwargs=lake_kwargs)
    res = run_cdc(change_log, drain_root, num_partitions=4, drain=True,
                  lake_kwargs=lake_kwargs)
    assert res.epochs_run == [0, 1, 2, 3]

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and "_staging" not in p.parts)

    assert files(seq_root) == files(drain_root)
    n_data = 0
    for rel in files(seq_root):
        a, b = seq_root / rel, drain_root / rel
        if rel.parts[0] == "_manifest":
            assert _layout_free(json.loads(a.read_text())) == \
                _layout_free(json.loads(b.read_text())), rel
        else:
            assert a.read_bytes() == b.read_bytes(), rel
            n_data += 1
    assert n_data > 4
    seq = LakeTable(seq_root, **lake_kwargs)
    drain = LakeTable(drain_root, **lake_kwargs)
    assert drain.snapshot_hash() == seq.snapshot_hash()
    assert drain.current_schema() == seq.current_schema()


def test_duplicate_event_delivery_is_idempotent(tmp_path):
    """At-least-once input: the same event delivered twice (same
    (url, warc_ts, seq), same payload) must not change the outcome —
    the LWW dedup collapses exact duplicate versions deterministically."""
    import pyarrow as pa
    import ray.data as rd

    def mk(op, seq, url, ts, text):
        return {"op": op, "seq": seq, "url": url,
                "warc_ts": pd.Timestamp(ts, unit="s"), "text": text,
                "lang": "en"}

    rows = [mk("insert", 0, "u1", 10, "a"), mk("update", 1, "u1", 20, "b"),
            mk("insert", 2, "u2", 5, "c")]
    dup_rows = rows + rows  # duplicated delivery
    l1 = LakeTable(tmp_path / "l1", num_partitions=2)
    l1.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), 0)
    l2 = LakeTable(tmp_path / "l2", num_partitions=2)
    l2.commit_epoch(rd.from_arrow(pa.Table.from_pylist(dup_rows)), 0)
    assert l1.snapshot_hash() == l2.snapshot_hash()


def test_drain_resume_after_partial_crash(change_log, tmp_path):
    """Crash mid-drain: epochs 0-1 committed, stale staging for epoch 2 —
    a fresh drain resumes from the cursor and converges."""
    root = tmp_path / "lake"
    run_cdc(change_log, root, num_partitions=4, max_epochs=2)
    stale = root / "_staging" / "epoch=000002" / "p=00001"
    stale.mkdir(parents=True)
    (stale / "garbage.parquet").write_bytes(b"junk")
    res = run_cdc(change_log, root, num_partitions=4, drain=True)
    assert res.epochs_run == [2, 3]
    full = tmp_path / "full"
    run_cdc(change_log, full, num_partitions=4)
    assert LakeTable(root, num_partitions=4).snapshot_hash() == \
        LakeTable(full, num_partitions=4).snapshot_hash()


def test_drain_adopts_committed_partition_count(change_log, tmp_path):
    """A drain constructed without ``num_partitions`` stages with the
    committed count, not the default: every key lands in one of the
    lake's 4 partitions and the lake equals a sequential run."""
    from chomper_ray.state.lake import load_manifest

    root = tmp_path / "lake"
    run_cdc(change_log, root, num_partitions=4, max_epochs=2)
    res = run_cdc(change_log, root, drain=True)
    assert res.epochs_run == [2, 3]
    assert sorted(load_manifest(root)["partitions"], key=int) == \
        ["0", "1", "2", "3"]
    full = tmp_path / "full"
    run_cdc(change_log, full, num_partitions=4)
    assert LakeTable(root).snapshot_hash() == LakeTable(full).snapshot_hash()


def test_racing_runners_skip_what_the_winner_committed(tmp_path):
    """Runners that staged against the same head: the later one skips
    the epochs a racer committed and lands the rest on top; one whose
    whole plan is committed skips before merging. The lake equals
    epoch-by-epoch commits."""
    import pyarrow as pa
    import ray.data as rd

    from chomper_ray.state.lake import plan_targets

    def rows(epoch, n):
        return [{"op": "insert", "seq": epoch * 100 + i, "epoch": epoch,
                 "url": f"u{i}", "warc_ts": pd.Timestamp(epoch * 50 + i,
                                                         unit="s"),
                 "text": f"t{epoch}-{i}"} for i in range(n)]

    def ds(*epochs):
        return rd.from_arrow(pa.Table.from_pylist(
            [r for e in epochs for r in rows(e, 30 - 10 * e)]))

    root = tmp_path / "lake"
    targets = plan_targets(None, {0: ds(0).schema(), 1: ds(0).schema()})
    first, second, third = (LakeTable(root, num_partitions=4)
                            for _ in range(3))
    staged_first = first.stage(ds(0), {0: targets[0]})
    staged_second = second.stage(ds(0, 1), targets)
    staged_third = third.stage(ds(0, 1), targets)
    assert not first.commit_staged(staged_first)[0].skipped
    res = second.commit_staged(staged_second)
    assert [(r.epoch, r.commit_id, r.skipped) for r in res] == \
        [(0, 0, True), (1, 1, False)]
    res = third.commit_staged(staged_third)
    assert [(r.epoch, r.commit_id, r.skipped) for r in res] == \
        [(0, 0, True), (1, 1, True)]

    clean = LakeTable(tmp_path / "clean", num_partitions=4)
    clean.commit_epoch(ds(0), 0)
    clean.commit_epoch(ds(1), 1)
    assert LakeTable(root).snapshot_hash() == clean.snapshot_hash()


def test_exactly_once_under_task_retry(tmp_path):
    """A staging map task that crashes once (Ray retries it) must not
    duplicate or lose data — staged duplicates are version-deduped and
    the commit converges to the clean-run snapshot hash."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    @ray.remote
    class FailOnce:
        def __init__(self):
            self.failed = False

        def should_fail(self):
            if not self.failed:
                self.failed = True
                return True
            return False

    coord = FailOnce.remote()

    def mk(op, seq, url, ts, text):
        return {"op": op, "seq": seq, "url": url,
                "warc_ts": pd.Timestamp(ts, unit="s"), "text": text,
                "lang": "en"}

    rows = [mk("insert", i, f"u{i % 7}", 10 + i, f"t{i}") for i in range(40)]

    def flaky(t: pa.Table) -> pa.Table:
        if ray.get(coord.should_fail.remote()):
            raise RuntimeError("injected failure (retried by Ray)")
        return t

    clean = LakeTable(tmp_path / "clean", num_partitions=2)
    clean.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), 0)

    lake = LakeTable(tmp_path / "flaky", num_partitions=2)
    ds = rd.from_arrow(pa.Table.from_pylist(rows)).repartition(4) \
        .map_batches(flaky, batch_format="pyarrow",
                     max_retries=3, retry_exceptions=True)
    lake.commit_epoch(ds, 0)
    assert lake.snapshot_hash() == clean.snapshot_hash()


def test_schema_narrowing_rejected_at_commit(tmp_path):
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from chomper_ray.state.schema import SchemaEvolutionError

    lake = LakeTable(tmp_path / "lake", num_partitions=2)

    def mk(seq, status):
        return {"op": "insert", "seq": seq, "url": f"u{seq}",
                "warc_ts": pd.Timestamp(seq, unit="s"), "status": status}

    lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(
        [mk(0, 200)])), 0)
    bad = pa.table({
        "op": ["insert"], "seq": pa.array([1], type=pa.int64()),
        "url": ["u9"], "warc_ts": pa.array([pd.Timestamp(1, unit="s")]),
        "status": ["oops-now-a-string"],   # int → string: incompatible
    })
    with _pytest.raises(SchemaEvolutionError):
        lake.commit_epoch(rd.from_arrow(bad), 1)


def test_empty_epoch_commits_and_advances_cursor(tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from chomper_ray.state.schema import EVENT_SCHEMA

    lake = LakeTable(tmp_path / "lake", num_partitions=2)
    empty = rd.from_arrow(EVENT_SCHEMA.empty_table())
    res = lake.commit_epoch(empty, 0)
    assert not res.skipped and res.partitions_touched == 0
    assert lake.last_committed_epoch() == 0
    assert lake.files() == []


def test_partition_count_adopted_and_validated(change_log, tmp_path):
    """ADVICE r01 (high): a LakeTable constructed with a different
    num_partitions than the committed manifest must adopt (None) or fail
    loudly (explicit mismatch) — never silently mis-route keys."""
    from chomper_ray.state.lake import PartitionMismatchError

    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=8)

    # default construction adopts the committed count
    adopted = LakeTable(lake_root)
    url = adopted.read_pandas()["url"].iloc[0]
    hit = adopted.lookup(url)
    assert adopted.num_partitions == 8
    assert len(hit) == 1 and hit["url"].iloc[0] == url

    # explicit mismatch raises on lookup AND on commit paths
    wrong = LakeTable(lake_root, num_partitions=16)
    with pytest.raises(PartitionMismatchError):
        wrong.lookup(url)
    import ray.data as rd

    from chomper_ray.state.schema import EVENT_SCHEMA
    with pytest.raises(PartitionMismatchError):
        wrong.commit_epoch(rd.from_arrow(EVENT_SCHEMA.empty_table()), 98)

    # truncate keeps the committed count even under a default-constructed
    # table, and purge_tombstones inherits it too
    LakeTable(lake_root).truncate(99)
    from chomper_ray.state.lake import load_manifest
    assert load_manifest(lake_root, 99)["num_partitions"] == 8


def test_read_with_column_pruning(change_log, tmp_path):
    """ADVICE r01 (medium): read(columns=[...]) must prune at the parquet
    read, still filter tombstones, and return exactly the asked columns."""
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root)

    full = lake.read_pandas()
    got = lake.read(columns=["url", "text"]).to_pandas()
    assert list(got.columns) == ["url", "text"]
    assert len(got) == len(full)  # tombstones filtered in both paths
    g = got.sort_values("url").reset_index(drop=True)
    f = full[["url", "text"]].sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, f)

    # include_deleted composes with pruning
    with_dead = lake.read(columns=["url"], include_deleted=True).to_pandas()
    assert len(with_dead) >= len(full)


def test_staging_file_count_bounded(change_log, tmp_path):
    """VERDICT r01 #8: staging writes one file per (task, bucket-RANGE),
    not per (task, bucket) — at 50k partitions the old layout was a
    small-file storm. Verified by counting files mid-stage."""
    from chomper_ray.pipelines.cdc import ExtractText
    from chomper_ray.sources import events as ev2
    from chomper_ray.state.lake import _staging_range_size, plan_targets

    lake = LakeTable(tmp_path / "lake", num_partitions=256)
    ds = ev2.read_epoch(change_log, 0).map_batches(
        ExtractText(), batch_format="pyarrow")
    schema_hint = ExtractText()(
        ev2.epoch_schema(change_log, 0).empty_table()).schema
    target = plan_targets(None, {0: schema_hint})[0]
    staged = lake.stage(ds, {0: target})
    pids = staged.touched[0]
    files = list((tmp_path / "lake" / "_staging").rglob("*.parquet"))
    n_tasks = len({f.name for f in files})
    # bound: tasks × 64 ranges, NOT tasks × 256 buckets
    assert len(files) <= n_tasks * 64
    assert len(pids) > 64  # many buckets touched, through few files
    assert _staging_range_size(256) == 4
    # and the commit over that staging still lands correctly
    (res,) = lake.commit_staged(staged)
    assert res.partitions_touched == len(pids)
    assert lake.read_pandas()["url"].is_unique


def test_tail_polls_leave_no_staging_attempts(change_log, tmp_path):
    """Every poll stages under its own attempt directory; the commit
    removes it with the epoch's staging, and so does a repartition."""
    root = tmp_path / "lake"
    for e in range(3):
        res = run_cdc(change_log, root, num_partitions=4, max_epochs=1)
        assert res.epochs_run == [e]
    assert list((root / "_staging").glob("attempt=*")) == []
    LakeTable(root).repartition_table(6)
    assert list((root / "_staging").glob("attempt=*")) == []


def test_id_field_surrogate_keys(tmp_path):
    """Reference id_field() backfill (sql/exporters.py:64-68,
    test_sql.py:130-141) as a lake policy: dense int64 ids assigned at
    commit, stable across epochs, never reused (tombstoned keys keep
    their identity — deviation note: the lake persists key identity
    through deletes, unlike a DB row that is physically gone)."""
    import pyarrow as pa
    import ray.data as rd

    from chomper_ray.state.lake import load_manifest

    def mk(op, seq, url, ts, text):
        return {"op": op, "seq": seq, "url": url,
                "warc_ts": pd.Timestamp(ts, unit="s"), "text": text}

    def commit(lake, rows, epoch):
        lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), epoch)

    lake = LakeTable(tmp_path / "lake", num_partitions=4, id_field="id")
    commit(lake, [mk("insert", 0, "a", 10, "x"), mk("insert", 1, "b", 10, "y"),
                  mk("insert", 2, "c", 10, "z")], 0)
    df0 = lake.read_pandas().set_index("url")
    assert sorted(df0["id"]) == [1, 2, 3]
    assert load_manifest(lake.root)["max_id"] == 3

    # update keeps id; new key extends the sequence
    commit(lake, [mk("update", 3, "a", 20, "x2"), mk("insert", 4, "d", 20, "w")], 1)
    df1 = lake.read_pandas().set_index("url")
    assert df1.loc["a", "id"] == df0.loc["a", "id"]
    assert df1.loc["d", "id"] == 4
    assert load_manifest(lake.root)["max_id"] == 4

    # delete + reinsert: key keeps its identity; no id reuse either way
    commit(lake, [mk("delete", 5, "b", 30, None)], 2)
    commit(lake, [mk("insert", 6, "b", 40, "back"), mk("insert", 7, "e", 40, "v")], 3)
    df3 = lake.read_pandas().set_index("url")
    assert df3.loc["b", "id"] == df0.loc["b", "id"]
    assert df3.loc["e", "id"] == 5
    assert df3["id"].is_unique

    # replay of a committed epoch is a no-op for ids too
    h = lake.snapshot_hash()
    commit(lake, [mk("insert", 6, "b", 40, "back")], 3)
    assert lake.snapshot_hash() == h

    # identical input → identical assignment (deterministic, replayable)
    lake2 = LakeTable(tmp_path / "lake2", num_partitions=4, id_field="id")
    commit(lake2, [mk("insert", 0, "a", 10, "x"), mk("insert", 1, "b", 10, "y"),
                   mk("insert", 2, "c", 10, "z")], 0)
    df0b = lake2.read_pandas().set_index("url")
    assert df0b["id"].to_dict() == df0["id"].to_dict()


def test_change_events_ds_matches_driver_frame(change_log, tmp_path):
    lake_root = tmp_path / "lake"
    run_cdc(change_log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root)
    a = lake.change_events().sort_values(["url", "epoch", "event", "field"],
                                         na_position="first") \
        .reset_index(drop=True)
    b = lake.change_events_ds().to_pandas() \
        .sort_values(["url", "epoch", "event", "field"],
                     na_position="first").reset_index(drop=True)
    pd.testing.assert_frame_equal(a[["url", "field", "event", "epoch"]],
                                  b[["url", "field", "event", "epoch"]])
    # subscription resume: since_epoch prunes whole change files by the
    # lineage metadata — equals the frame filtered by epoch
    c = lake.change_events_ds(since_epoch=0).to_pandas() \
        .sort_values(["url", "epoch", "event", "field"],
                     na_position="first").reset_index(drop=True)
    want = a[a["epoch"] > 0].reset_index(drop=True)
    pd.testing.assert_frame_equal(
        c[["url", "field", "event", "epoch"]],
        want[["url", "field", "event", "epoch"]])
    last = int(a["epoch"].max())
    assert lake.change_events_ds(since_epoch=last).count() == 0


def test_multi_epoch_commit_crash_between_manifests(change_log, tmp_path,
                                                    monkeypatch):
    """Drain writes ALL snapshots then manifests in epoch order; a crash
    after the FIRST manifest must leave a resumable lake that converges
    to the sequential-run snapshot hash."""
    import chomper_ray.state.lake as lk

    full = tmp_path / "full"
    run_cdc(change_log, full, num_partitions=4)
    h = LakeTable(full).snapshot_hash()

    root = tmp_path / "lake"
    orig = lk._commit_manifest_exclusive
    calls = {"n": 0}

    def boom(path, obj):
        ok = orig(path, obj)
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated crash after first manifest")
        return ok

    monkeypatch.setattr(lk, "_commit_manifest_exclusive", boom)
    with pytest.raises(RuntimeError):
        run_cdc(change_log, root, num_partitions=4, drain=True)
    monkeypatch.setattr(lk, "_commit_manifest_exclusive", orig)

    assert LakeTable(root).last_committed_epoch() == 0  # partial commit
    res = run_cdc(change_log, root, num_partitions=4, drain=True)
    assert res.epochs_run == [1, 2, 3]
    assert LakeTable(root).snapshot_hash() == h


def test_concurrent_runners_converge(change_log, tmp_path):
    """Two runner PROCESSES racing on the same log+lake (accidental
    double-scheduling): snapshot paths are deterministic and manifest
    renames atomic, so the survivors must equal a clean single run."""
    import os
    import subprocess
    import sys

    lake = tmp_path / "lake"
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    cmd = [sys.executable, "-m", "chomper_ray.cli", "run-cdc",
           "--log-dir", str(change_log), "--lake-root", str(lake),
           "--num-partitions", "4", "--drain"]
    p1 = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    p2 = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    rc1, rc2 = p1.wait(timeout=300), p2.wait(timeout=300)
    # both runners may race the same staging dirs; at least one must
    # succeed, and the LAKE must converge regardless
    assert rc1 == 0 or rc2 == 0

    full = tmp_path / "full"
    run_cdc(change_log, full, num_partitions=4)
    assert LakeTable(lake).last_committed_epoch() == 3
    assert LakeTable(lake).snapshot_hash() == \
        LakeTable(full, num_partitions=4).snapshot_hash()


class TestHotPartitionDetection:
    def test_detect_unit(self):
        from chomper_ray.state.lake import detect_hot_partitions

        assert detect_hot_partitions({}) == {}
        # uniform volumes: nothing hot
        assert detect_hot_partitions({i: 1000 for i in range(8)},
                                     min_rows=10) == {}
        # one bucket way above 4x median AND the floor
        vols = {i: 100 for i in range(31)}
        vols[7] = 5000
        assert detect_hot_partitions(vols, min_rows=400) == {7: 5000}
        # below the absolute floor: skew alone doesn't flag tiny tables
        assert detect_hot_partitions(vols, min_rows=100_000) == {}

    def test_commit_flags_skewed_epoch(self, tmp_path, ray_session):
        import ray.data as rd

        from chomper_ray.state.lake import LakeTable, stable_bucket

        lake = LakeTable(tmp_path / "lake", key="url", num_partitions=4)
        lake.hot_min_rows = 50  # test-scale threshold

        # 400 distinct urls all hashing to one bucket + a sprinkle
        # elsewhere: the distinct-key skew the combiner can't collapse
        import numpy as np
        import pyarrow as pa

        pool = [f"https://h.example.com/{i}" for i in range(4000)]
        b = stable_bucket(np.array(pool, dtype=object), 4)
        hot_urls = [u for u, bb in zip(pool, b) if bb == 0][:400]
        cool_urls = [u for u, bb in zip(pool, b) if bb != 0][:40]
        rows = [{"op": "insert", "seq": i, "url": u,
                 "warc_ts": pd.Timestamp(10, unit="s"), "v": 1}
                for i, u in enumerate(hot_urls + cool_urls)]
        c = lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), 0)
        assert list(c.hot_partitions) == [0]
        assert c.hot_partitions[0] == 400

        # uniform epoch: flag clears
        rows2 = [{"op": "update", "seq": 10_000 + i, "url": u,
                  "warc_ts": pd.Timestamp(20, unit="s"), "v": 2}
                 for i, u in enumerate(pool[:400])]
        c2 = lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows2)), 1)
        assert c2.hot_partitions == {}


def test_lineage_invariants(tmp_path, ray_session):
    """Queryable lineage (north-star: offsets/row-counts/commit-epochs
    as metadata): per-row and cross-epoch invariants hold."""
    from chomper_ray.sources.events import generate_change_stream

    log = generate_change_stream(tmp_path / "log", n_events=3000,
                                 n_urls=400, n_epochs=3, seed=3)
    lake_root = tmp_path / "lake"
    run_cdc(log, lake_root, num_partitions=4)
    lake = LakeTable(lake_root, num_partitions=4)
    lin = lake.lineage()
    assert set(lin["epoch"]) == {0, 1, 2}
    assert lin["partition_id"].between(0, 3).all()
    # live rows never exceed total rows; deleted = rows - live per row
    assert (lin["live_rows"] + lin["deleted_rows"] == lin["rows"]).all()
    # snapshot totals per epoch are monotone in versions-applied terms:
    # the FINAL epoch's per-partition live totals match the table state
    last = lin[lin["epoch"] == 2].set_index("partition_id")["live_rows"]
    state = lake.read_pandas()
    assert int(last.sum()) == len(state)
    # events_in per epoch is bounded by the raw event count and > 0
    per_epoch = lin.groupby("epoch")["events_in"].sum()
    assert (per_epoch > 0).all() and (per_epoch <= 3000).all()
