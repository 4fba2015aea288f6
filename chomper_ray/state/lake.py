"""Partitioned Parquet lake table with copy-on-write commits and an
exactly-once per-epoch manifest.

Replaces the reference's per-row autocommit sink
(``/root/reference/chomper/contrib/postgres.py:295-444``: SELECT → UPDATE or
INSERT → COMMIT per item, acknowledged race at postgres.py:301-302) with:

- a fixed number of hash partitions keyed by ``url`` (the same
  ``stable_bucket`` that routes the change-set, so merges are
  partition-local — no second shuffle);
- copy-on-write: each commit writes a NEW snapshot file per touched
  partition (``data/p=NNNNN/snap-EEEEEE.parquet``) at a path derived
  deterministically from (partition, epoch) — a retried write task simply
  overwrites its own staging output (SURVEY §7.6);
- an atomic JSON manifest per epoch (tmp + rename) holding the FULL
  partition→file mapping, row counts, content hashes, the evolved schema
  and lineage. **Replaying a committed epoch is a no-op** (the commit
  checks the manifest first), which is what makes replay from any
  checkpoint land on the identical final state;
- tombstoned deletes: versions persist so late out-of-order events can
  never resurrect a deleted key; reads filter ``_deleted``.

Scale notes (100 TB): ``num_partitions`` is fixed at table creation and
sized so one partition's snapshot + change-set fits a worker's heap
(e.g. 2 GiB partitions → 50k partitions at 100 TB). The merge fans out as
one ``map_groups`` task per touched partition — driver work is O(touched
partitions) metadata only, no data moves through the driver.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.stages.merge import (
    BUCKET_COL,
    INTERNAL_DELETED,
    INTERNAL_SEQ,
    apply_changes,
    lww_apply_table,
    lww_dedup_table,
    snapshot_cells,
    stable_bucket,
)
from chomper_ray.state import schema as schema_mod
from chomper_ray.state.fs import (
    FsPath,
    fs_copy_file,
    fs_exists,
    fs_glob,
    fs_is_dir,
    fs_names,
    fs_mkdirs,
    fs_parquet_writer,
    fs_publish_bytes,
    fs_publish_json,
    fs_publish_table,
    fs_put_json_if_absent,
    fs_parquet_file,
    fs_rglob,
    fs_read_table,
    fs_read_text,
    fs_rmdir_if_empty,
    fs_rmtree,
    fs_unlink,
    fs_write_text_atomic,
    resolve_root,
)

def pc_unique_int(col) -> list[int]:
    import pyarrow.compute as _pc

    return sorted(v.as_py() for v in _pc.unique(col))


_MANIFEST_DIR = "_manifest"
_DATA_DIR = "data"
_CHANGES_DIR = "changes"
_STAGING_DIR = "_staging"

INTERNAL_COLS = (INTERNAL_SEQ, INTERNAL_DELETED)

DEFAULT_NUM_PARTITIONS = 16

# staging files per task are bounded by grouping buckets into ranges:
# file count per epoch = tasks × min(STAGING_RANGES, num_partitions)
# instead of tasks × num_partitions (the 50k-partition small-file storm).
# Inside a range file each bucket is its own parquet ROW GROUP with
# _bucket min/max stats, so the per-bucket merge still reads only its own
# rows (row-group pruning) — no read amplification, parallelism unchanged.
STAGING_RANGES = 64


def _staging_range_size(num_partitions: int) -> int:
    return max(1, -(-num_partitions // STAGING_RANGES))


class PartitionMismatchError(ValueError):
    """Constructed partition count contradicts the committed manifest.

    ``num_partitions`` decides which partition a key hashes to — a
    mismatched count would route lookups to the wrong file (silent empty
    results) and stage changes into differently-bucketed partitions than
    the base snapshots (silent cross-partition key duplication, breaking
    the LWW/exactly-once guarantee). Once a manifest exists its value is
    authoritative; a conflicting explicit constructor arg fails loudly.
    """


@dataclass
class CommitResult:
    epoch: int
    # manifest-chain id this commit landed at; equals ``epoch`` unless
    # maintenance commits (purge/truncate) interleaved with the tail
    commit_id: int | None = None
    skipped: bool = False
    partitions_touched: int = 0
    rows_upserted: int = 0
    rows_deleted: int = 0
    total_rows: int = 0
    wall_s: float = 0.0
    stage_s: float = 0.0
    merge_s: float = 0.0
    lineage: list[dict] = field(default_factory=list)
    # staged-volume skew flagged at stage time: {pid: staged_rows} for
    # partitions exceeding the hot threshold (see detect_hot_partitions)
    hot_partitions: dict = field(default_factory=dict)


@dataclass
class StagedEpochs:
    """One staging pass, ready for ``LakeTable.commit_staged``: the head
    manifest it was bucketed against, each epoch's target schema in
    commit order, the partitions each epoch touched, each epoch's hot
    partitions and the pass's wall."""
    head: dict | None
    targets: dict[int, pa.Schema]
    touched: dict[int, list[int]]
    hot: dict[int, dict[int, int]] = field(default_factory=dict)
    stage_s: float = 0.0


def detect_hot_partitions(volumes: dict[int, int], *, factor: float = 4.0,
                          min_rows: int = 100_000,
                          warn_context: str | None = None) -> dict[int, int]:
    """Flag partitions whose STAGED row volume marks a merge straggler.

    The per-block LWW combiner already collapses hot KEYS (one popular
    url leaves each block ≤ once), so staged volume only concentrates
    when many DISTINCT keys share a bucket — hash imbalance or an
    adversarial key set. Such a bucket serializes its copy-on-write
    merge: measured at 4.8 M events / 50 % of rows + distinct keys in
    one of 32 buckets, the merge wall runs ~2.5-4× the uniform case
    (scripts/stress_hotkey_cdc.py, `hot_wide` leg).

    A partition is hot when its staged rows exceed
    ``max(factor × median(nonzero volumes), min_rows)``. The engineered
    lever is the partition count: re-keying ``stable_bucket`` with k×
    more buckets splits any set that concentrated under the old modulus
    (the same 50 %-skew stress at 128 instead of 32 partitions spreads
    the hot set 4 ways and halves the merge wall) — so the guidance on
    a persistent flag is to raise ``num_partitions``, not to salt: the
    merge must co-locate a key's rows with its snapshot partition, so
    salt-and-re-merge would just move the funnel one stage later.

    Detection is metadata-only: the stage writer already returns one
    (pid, rows) row per touched bucket per block.
    """
    import logging

    if not volumes:
        return {}
    vals = np.array([v for v in volumes.values() if v > 0])
    if not len(vals):
        return {}
    threshold = max(factor * float(np.median(vals)), float(min_rows))
    hot = {int(p): int(v) for p, v in sorted(volumes.items())
           if v > threshold}
    if hot and warn_context:
        total = int(vals.sum())
        top_pid = max(hot, key=hot.get)
        logging.getLogger(__name__).warning(
            "hot partition(s) at stage time (%s): %s — bucket %d holds "
            "%.0f%% of staged rows (threshold %d). If this persists, "
            "raise num_partitions (k× more buckets splits a set that "
            "concentrated under the old modulus; measured 32→128 halves "
            "the merge wall at 50%% skew) or revisit the partition key.",
            warn_context, hot, top_pid, 100.0 * hot[top_pid] / total,
            int(threshold))
    return hot


def suggest_partitions(volumes: dict[int, int], current: int, *,
                       factor: float = 4.0, min_rows: int = 100_000,
                       max_growth: int = 4) -> int:
    """Partition-count recommendation from observed per-partition ingest
    volumes — the advisory half of the skew lever whose mechanical half
    is ``LakeTable.repartition_table``.

    Model (matches the hot-key stress): spreading a wide-hot bucket
    over ``k``× more buckets divides its peak by ~``k`` (the hot set is
    DISTINCT keys — the combiner already collapsed duplicate keys).
    Pick the smallest ``k`` bringing the peak under the hot threshold
    (``factor × median``), capped at ``max_growth`` per step (one
    bounded shuffle at a time; the next poll re-evaluates).

    Returns ``current`` when nothing is hot — callers treat
    ``suggestion == current`` as "leave it alone".

    ``min_rows`` is the economics guard, not just noise filtering: a
    partition merge has a fixed per-task cost (task dispatch, file
    open/rewrite, hash), so splitting only pays when the hot
    partition's EXCESS volume dwarfs it. Measured: at 4.8 M events the
    32→128 split halves the wide-hot merge wall; at 0.4 M the same
    split makes it ~1.3× SLOWER (fixed costs dominate). Keep
    ``min_rows`` at production scale honest rather than tuning it down.
    """
    import math

    if not volumes or current < 1:
        return current
    vals = np.array([v for v in volumes.values() if v > 0])
    if not len(vals):
        return current
    med = float(np.median(vals))
    peak = float(vals.max())
    threshold = max(factor * med, float(min_rows))
    if peak <= threshold:
        return current
    k = min(max_growth, max(2, math.ceil(peak / threshold)))
    return current * k


def _manifest_path(root, epoch: int):
    return root / _MANIFEST_DIR / f"manifest-{epoch:06d}.json"


def commit_ts_for(commit_id: int) -> int:
    """The commit timestamp (µs) of manifest-chain id ``commit_id``:
    deterministic, so a replayed commit stamps the identical value."""
    return 1_600_000_000_000_000 + commit_id * 1_000_000


def log_cursor(m: dict | None) -> int | None:
    """The binlog cursor a manifest records. Pre-decoupling manifests
    have no ``log_epoch`` field: there it is the chain id."""
    le = (m or {}).get("log_epoch", (m or {}).get("epoch"))
    return None if le is None else int(le)


def _atomic_write_json(path, obj) -> None:
    # atomic publish: tmp+rename on POSIX, single-object put on an
    # object store (state/fs.py) — readers never see a partial manifest
    fs_publish_json(path, obj)


def _commit_manifest_exclusive(path, obj) -> bool:
    """FIRST-WRITER-WINS manifest creation: two racing runners may both
    reach the commit point for the same epoch; put-if-absent (``os.link``
    create-exclusive on POSIX, conditional put on an object store —
    state/fs.py) lets exactly one land its manifest, the loser returns
    False and treats the epoch as already committed. (A plain
    rename/overwrite would let the LOSER clobber the winner — and the
    loser's merge may have read staging the winner already cleaned.)"""
    return fs_put_json_if_absent(path, obj)


def _as_root(root):
    """Coerce a caller-supplied root: FsPath passes through, a URI
    string resolves to its filesystem (``resolve_root``), any other
    str/Path stays a local ``pathlib.Path`` (the fast-path)."""
    if isinstance(root, FsPath):
        return root
    if "://" in str(root):
        return resolve_root(root)
    return Path(root)


def committed_epochs(root) -> list[int]:
    d = _as_root(root) / _MANIFEST_DIR
    return sorted(int(n.split("-")[1].removesuffix(".json"))
                  for n in fs_names(d, "manifest-*.json"))


def load_manifest(root, epoch: int | None = None) -> dict | None:
    eps = committed_epochs(root)
    if not eps:
        return None
    if epoch is None:
        epoch = eps[-1]
    return json.loads(fs_read_text(_manifest_path(_as_root(root), epoch)))


@dataclass(frozen=True)
class _ReadManifest:
    """One manifest parsed for a read: its text, the dict, and the
    schema's column names and Arrow form. ``LakeTable.lookup`` keeps the
    last head it parsed; no commit path ever receives the dict."""
    epoch: int
    text: str
    manifest: dict
    names: list
    schema: pa.Schema

    @classmethod
    def parse(cls, epoch: int, text: str) -> "_ReadManifest":
        m = json.loads(text)
        return cls(epoch, text, m, [f["name"] for f in m["schema"]],
                   schema_mod.schema_from_json(m["schema"]))


def plan_targets(head: dict | None,
                 hints: dict[int, pa.Schema]) -> dict[int, pa.Schema]:
    """Each epoch's target schema: ``head``'s schema evolved by each
    epoch's (transformed) segment schema, chained in commit order —
    exactly what epoch-by-epoch commits resolve (reconcile is
    order-insensitive, tested). Envelope/bookkeeping columns are
    ignored."""
    base = schema_mod.schema_from_json(head["schema"]) if head else None
    targets = {}
    for e, hint in hints.items():
        inc = pa.schema([pa.field(n, t) for n, t in zip(hint.names, hint.types)
                         if n not in ("op", "seq", "epoch", BUCKET_COL)])
        targets[e] = base = schema_mod.reconcile(base, inc) \
            if base is not None else inc
    return targets


class _PartitionMerger:
    """Per-partition copy-on-write merge: one invocation per touched
    bucket, fully vectorized inside.

    A plain callable (not an actor): each task threads its partition's
    snapshot through every epoch of the commit plan in order — read the
    epoch's staged change rows, merge, write the new snapshot +
    change-event side output to deterministic paths — and returns one
    lineage row per epoch that touched the partition. One Ray dataset
    execution covers the whole plan, so a backlog drain pays one driver
    barrier rather than one per epoch. Deterministic output (sorted by
    key) ⇒ retries produce identical files.

    ``plan``: ``[(log_epoch, commit_id, schema_json, commit_ts_us), ...]``
    in commit order. The commit id (manifest-chain id) names the output
    files, unique across the chain even when maintenance commits
    interleave or a truncate re-feeds the same log epochs.
    """

    def __init__(self, *, root, staging_root, prev_files: dict[int, str],
                 plan: list[tuple[int, int, list, int]], key: str,
                 version_ts: str, overwrite: bool,
                 protected: tuple[str, ...], managed_timestamps: bool,
                 collect_changes: bool, insert_missing: bool,
                 num_partitions: int, id_field: str | None = None,
                 id_starts: dict[int, int] | None = None):
        self.root = root
        self.staging_root = staging_root
        self.prev_files = prev_files
        self.plan = plan
        self.key = key
        self.version_ts = version_ts
        self.overwrite = overwrite
        self.protected = protected
        self.managed_timestamps = managed_timestamps
        self.collect_changes = collect_changes
        self.insert_missing = insert_missing
        self.num_partitions = num_partitions
        self.id_field = id_field
        self.id_starts = id_starts or {}

    def __call__(self, pids: pa.Table) -> pa.Table:
        return pa.concat_tables([row for p in pids["pid"].to_pylist()
                                 for row in self._merge_chain(int(p))])

    def _merge_chain(self, pid: int) -> list[pa.Table]:
        base_tbl = self._load_base(pid,
                                   schema_mod.schema_from_json(self.plan[0][2]))
        rows = []
        for step in self.plan:
            changes = self._read_staged(pid, step[0])
            if changes.num_rows == 0:
                continue  # epoch didn't touch this partition
            base_tbl, row = self._merge_step(pid, base_tbl, changes, *step)
            rows.append(row)
        return rows

    def _read_staged(self, pid: int, epoch: int) -> pa.Table:
        rid = pid // _staging_range_size(self.num_partitions)
        staged = fs_glob(_as_root(self.staging_root) / f"epoch={epoch:06d}"
                         / f"r={rid:05d}", "*.parquet")
        if not staged:
            # a drain epoch that staged no rows in this partition's range
            return pa.table({})
        # row-group pruning on _bucket stats: only this bucket's rows load
        changes = pa.concat_tables(
            [fs_read_table(f, filters=[(BUCKET_COL, "=", pid)])
             for f in staged], promote_options="default")
        if BUCKET_COL in changes.column_names:
            changes = changes.drop_columns([BUCKET_COL])
        return changes

    def _load_base(self, pid: int, target: pa.Schema) -> pa.Table:
        root = _as_root(self.root)
        prev = self.prev_files.get(pid)
        if prev:
            return fs_read_table(root / prev)
        base_fields = list(target) + [
            pa.field(INTERNAL_SEQ, pa.int64()),
            pa.field(INTERNAL_DELETED, pa.bool_()),
        ]
        if self.managed_timestamps:
            base_fields += [pa.field("created_at", pa.timestamp("us")),
                            pa.field("updated_at", pa.timestamp("us"))]
        return pa.schema(base_fields).empty_table()

    def _merge_step(self, pid: int, base_tbl: pa.Table, changes: pa.Table,
                    epoch: int, cid: int, schema_json: list,
                    commit_ts_us: int) -> tuple[pa.Table, pa.Table]:
        """One epoch's copy-on-write merge for one partition; returns
        ``(new_snapshot_table, lineage_row)`` so a drain can thread the
        snapshot straight into the next epoch without a re-read."""
        t0 = time.perf_counter()
        target = schema_mod.schema_from_json(schema_json)
        root = _as_root(self.root)
        # widen an older snapshot to the evolved schema
        base_tbl = _conform_snapshot(base_tbl, target, self.managed_timestamps,
                                     id_field=self.id_field)

        base = base_tbl.to_pandas(types_mapper=None)
        # surrogate ids are ENGINE-managed (reference identity column,
        # sql/exporters.py:64-68): strip before the merge so they neither
        # ride LWW as data nor fire change listeners; reattached below
        prev_ids = None
        if self.id_field:
            if self.id_field in base.columns:
                prev_ids = base.set_index(self.key)[self.id_field]
                base = base.drop(columns=[self.id_field])
            else:
                prev_ids = pd.Series(dtype="int64")
        ch = changes.to_pandas()
        commit_ts = pd.Timestamp(commit_ts_us, unit="us")
        new, events = apply_changes(
            base, ch, key=self.key, version_ts=self.version_ts,
            overwrite=self.overwrite, protected=self.protected,
            managed_timestamps=self.managed_timestamps,
            commit_ts=commit_ts, collect_changes=self.collect_changes,
            insert_missing=self.insert_missing,
        )
        new = new.sort_values(self.key, kind="stable").reset_index(drop=True)

        if self.id_field:
            # existing keys keep their id; NEW keys (incl. same-epoch
            # tombstones — identity is never reused) take dense ranks in
            # key order from this partition's offset (computed by the
            # driver from per-partition new-key counts + manifest max_id)
            ids = new[self.key].map(prev_ids)
            is_new = ids.isna().to_numpy()
            start = int(self.id_starts.get(pid, 0))
            ids = ids.to_numpy(dtype="float64")
            ids[is_new] = start + np.arange(int(is_new.sum()), dtype="float64")
            new[self.id_field] = ids.astype("int64")

        out_schema = _snapshot_schema(target, self.managed_timestamps,
                                      id_field=self.id_field)
        out_tbl = pa.Table.from_pandas(
            new[[f.name for f in out_schema]], schema=out_schema,
            preserve_index=False,
        )

        rel = f"{_DATA_DIR}/p={pid:05d}/snap-{cid:06d}.parquet"
        # attempt-isolated publish (fs_publish_table: uuid tmp + rename
        # on POSIX, one whole-object put on an object store): two
        # concurrent drain attempts may race to write the SAME final
        # path — identical content, first-writer-wins manifest — and
        # either ordering leaves the winner's bytes intact
        fs_publish_table(out_tbl, root / rel, key=self.key)

        ch_rel = None
        n_events = 0
        if events is not None and len(events):
            # log epoch first (the user-facing change-event epoch), commit
            # id second (uniqueness across truncate-refeed chains)
            ch_rel = (f"{_CHANGES_DIR}/p={pid:05d}/"
                      f"epoch-{epoch:06d}-c{cid:06d}.parquet")
            fs_publish_table(
                pa.Table.from_pandas(events, preserve_index=False),
                root / ch_rel, key=self.key)
            n_events = len(events)

        live = int((~new[INTERNAL_DELETED]).sum())
        # hash the WRITTEN content (the out_schema projection), not the
        # wider merge frame — so fsck can re-derive it from the file
        content_hash = snapshot_content_hash(out_tbl.to_pandas(),
                                             self.key)
        n_del = int(new[INTERNAL_DELETED].sum())
        row = pa.table({
            "partition_id": [pid],
            "epoch": [epoch],
            "file": [rel],
            "rows": [len(new)],
            "live_rows": [live],
            "deleted_rows": [n_del],
            "events_in": [changes.num_rows],
            "change_events": [n_events],
            "changes_file": [ch_rel or ""],
            "hash": [content_hash],
            "wall_s": [round(time.perf_counter() - t0, 4)],
        })
        return out_tbl, row


def _conform_snapshot(tbl: pa.Table, target: pa.Schema, managed: bool,
                      id_field: str | None = None) -> pa.Table:
    extra = [pa.field(INTERNAL_SEQ, pa.int64()), pa.field(INTERNAL_DELETED, pa.bool_())]
    if managed:
        extra += [pa.field("created_at", pa.timestamp("us")),
                  pa.field("updated_at", pa.timestamp("us"))]
    head = [pa.field(id_field, pa.int64())] \
        if id_field and id_field not in target.names else []
    full = pa.schema(head + list(target)
                     + [f for f in extra if f.name not in target.names])
    return schema_mod.conform(tbl, full)


def _snapshot_schema(target: pa.Schema, managed: bool,
                     id_field: str | None = None) -> pa.Schema:
    """The physical schema of a snapshot file for a given target schema:
    optional surrogate id up front, internal version/tombstone columns,
    managed timestamps at the tail."""
    fields = ([pa.field(id_field, pa.int64())] if id_field else []) \
        + list(target) + [pa.field(INTERNAL_SEQ, pa.int64()),
                          pa.field(INTERNAL_DELETED, pa.bool_())]
    if managed:
        fields += [pa.field("created_at", pa.timestamp("us")),
                   pa.field("updated_at", pa.timestamp("us"))]
    return pa.schema(fields)


def manifest_has_deltas(manifest: dict | None) -> bool:
    """True when a merge-on-read manifest carries unfolded delta files.
    Lake operations that rewrite base files in place (COW commits,
    purge, repartition, backfill, delete_where) refuse at such a head —
    they would drop the pending changes. Derived structures (matview /
    index / layouts) do NOT refuse: they fold each delta commit's exact
    effect via ``materialize_mor_commit_diff`` and treat compaction as
    a zero delta (``is_compaction_manifest``)."""
    if not manifest:
        return False
    return any(v.get("deltas") for v in manifest.get("partitions", {}).values())


class _MorDeltaWriter(_PartitionMerger):
    """Merge-on-read commit: instead of the copy-on-write read-modify-write,
    each touched partition's staged change rows are folded to the epoch's
    per-partition LWW change-set (the same combiner contract staging
    applies per block, made total per partition — deterministic content
    regardless of task/block boundaries, so retries and racing runners
    produce byte-identical delta files) and written as a permanent delta
    file next to the base snapshot. No base read, no base rewrite: commit
    write amplification is ~1 regardless of table size. The merge is
    deferred to read()/lookup()/compact_deltas(), which replay
    ``_replay_step`` base → deltas in commit order — the exact
    computation copy-on-write would have run at commit time.
    """

    def _merge_chain(self, pid: int) -> list[pa.Table]:
        rows = []
        for epoch, cid, _schema_json, _ts in self.plan:
            changes = self._read_staged(pid, epoch)
            if changes.num_rows == 0:
                continue  # epoch didn't touch this partition
            rows.append(self._write_delta(pid, epoch, cid, changes))
        return rows

    def _write_delta(self, pid: int, epoch: int, cid: int,
                     changes: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t0 = time.perf_counter()
        events_in = changes.num_rows
        # total per-partition LWW dedup: one max-version row per key —
        # block-layout-independent, so the file content is deterministic
        # across retried attempts (the exactly-once requirement; the
        # copy-on-write merge gets the same invariance from apply_changes)
        changes = lww_dedup_table(changes, self.key,
                                  (self.version_ts, "seq"))
        root = _as_root(self.root)
        rel = f"{_DATA_DIR}/p={pid:05d}/delta-c{cid:06d}.parquet"
        fs_publish_table(changes, root / rel, key=self.key)
        n_del = int(pc.sum(pc.equal(changes["op"], "delete")).as_py() or 0)
        return pa.table({
            "partition_id": [pid],
            "epoch": [epoch],
            "file": [rel],
            "rows": [changes.num_rows],
            "live_rows": [-1],  # unknown until resolution
            "deleted_rows": [n_del],
            "events_in": [events_in],
            "change_events": [0],
            "changes_file": [""],
            "hash": [snapshot_content_hash(changes.to_pandas(), self.key)],
            "wall_s": [round(time.perf_counter() - t0, 4)],
        })


def _replay_step(base_tbl: pa.Table, changes: pa.Table, target: pa.Schema,
                 *, key: str, version_ts: str, overwrite: bool,
                 protected: tuple[str, ...], managed: bool,
                 insert_missing: bool,
                 commit_ts_us: int) -> pa.Table:
    """One deferred merge step (read-time twin of ``_merge_step`` minus
    the file writes and the hash): conform the base to the commit's
    target schema and apply the delta's change rows. Returns the
    snapshot-schema table ``_merge_step`` would have written, sorted by
    key, so hashing the last step's result gives the copy-on-write
    manifest hash bit-for-bit. The default policy (last writer wins, no
    ``protected``, no managed timestamps, ``insert_missing``) runs in
    Arrow (``lww_apply_table``); the others go through
    ``apply_changes``. A default-policy step with no change row (a
    key-filtered read of a delta that lacks the key) only conforms the
    base: its rows are snapshot rows (unique, sorted, non-null keys),
    which ``lww_apply_table`` with an empty change side returns as they
    are."""
    base_tbl = _conform_snapshot(base_tbl, target, managed)
    out_schema = _snapshot_schema(target, managed)
    if overwrite and not protected and not managed and insert_missing:
        if not changes.num_rows:
            return snapshot_cells(base_tbl)
        return lww_apply_table(base_tbl, changes, out_schema, key=key,
                               version_ts=version_ts)
    base = base_tbl.to_pandas(types_mapper=None)
    ch = changes.to_pandas()
    new, _ = apply_changes(
        base, ch, key=key, version_ts=version_ts, overwrite=overwrite,
        protected=protected, managed_timestamps=managed,
        commit_ts=pd.Timestamp(commit_ts_us, unit="us"),
        collect_changes=False, insert_missing=insert_missing,
    )
    new = new.sort_values(key, kind="stable").reset_index(drop=True)
    return pa.Table.from_pandas(new[[f.name for f in out_schema]],
                                schema=out_schema, preserve_index=False)


def _resolve_mor_pid(root: str | Path, part: dict, delta_commits: dict,
                     *, key: str, version_ts: str, overwrite: bool,
                     protected: tuple[str, ...], managed: bool,
                     insert_missing: bool, columns=None,
                     key_filter=None) -> pa.Table | None:
    """Resolve one partition's current state from its base snapshot plus
    pending merge-on-read deltas, replaying ``_replay_step`` in commit
    order. ``columns`` prunes the replay to the requested fields (plus
    key/version/internals — per-column LWW/fold/protected semantics are
    column-local, so prune-then-merge ≡ merge-then-prune). ``key_filter``
    restricts to one key (the point-lookup path) or, given an Arrow
    array / list of keys, to that key SET (the derived-maintenance diff
    path) — merges are per-key independent, so filtering both sides
    first is exact either way.

    Returns the resolved table (None when the partition has neither a
    base nor deltas). It computes no content hash: a caller that needs
    one (``_resolved_hashes``, ``compact_deltas``) hashes the result of
    a full-column, unfiltered resolution once, and gets what a
    copy-on-write merge chain would have recorded in its manifest."""
    import pyarrow.compute as pc

    root = _as_root(root)
    deltas = sorted(part.get("deltas", []), key=lambda d: d["commit_id"])
    targets = {d["commit_id"]:
               schema_mod.schema_from_json(
                   delta_commits[str(d["commit_id"])]["schema"])
               for d in deltas}
    needed = None
    if columns is not None:
        needed = set(columns) | {key, version_ts}

    def prune(schema: pa.Schema) -> pa.Schema:
        if needed is None:
            return schema
        return pa.schema([f for f in schema if f.name in needed])

    # push the key restriction into each file read: row groups whose
    # key stats exclude the wanted set never decode, and the read's
    # exact mask keeps only the wanted keys. Bounded so a drain-sized
    # key set doesn't pay a giant stats probe — past that each file is
    # read whole and masked here.
    filters = key_set = None
    if isinstance(key_filter, pa.ChunkedArray):
        key_set = key_filter.combine_chunks()
    elif isinstance(key_filter, pa.Array):
        key_set = key_filter
    elif isinstance(key_filter, (list, tuple, np.ndarray)):
        key_set = pa.array(key_filter)
    if key_set is not None:
        if len(key_set) <= 10_000:
            filters = [(key, "in", key_set.to_pylist())]
    elif key_filter is not None:
        filters = [(key, "=", key_filter)]

    def read(rel: str, wanted) -> pa.Table:
        # one open per file: its own schema prunes ``wanted`` to the
        # columns this file has (older files predate evolved columns)
        with fs_parquet_file(root / rel) as pf:
            cols = None
            if needed is not None:
                avail = set(pf.schema_arrow.names)
                cols = [c for c in wanted if c in avail]
            tbl = fs_read_table(pf, columns=cols, filters=filters)
        if key_set is not None and filters is None:
            tbl = tbl.filter(pc.is_in(tbl[key], value_set=key_set))
        return tbl

    base_file = part.get("file")
    if base_file:
        base_tbl = read(base_file, [*sorted(needed or ()), INTERNAL_SEQ,
                                    INTERNAL_DELETED,
                                    *(('created_at', 'updated_at')
                                      if managed else ())])
    elif deltas:
        base_tbl = _snapshot_schema(prune(targets[deltas[0]["commit_id"]]),
                                    managed).empty_table()
    else:
        return None
    for d in deltas:
        cid = d["commit_id"]
        dc = delta_commits[str(cid)]
        target = prune(targets[cid])
        changes = read(d["file"], ["op", "seq", *sorted(needed or ())])
        base_tbl = _replay_step(
            base_tbl, changes, target, key=key, version_ts=version_ts,
            overwrite=overwrite, protected=protected, managed=managed,
            insert_missing=insert_missing,
            commit_ts_us=int(dc["commit_ts_us"]))
    return base_tbl


def snapshot_content_hash(df: pd.DataFrame, key: str) -> str:
    """Order-independent content hash of a snapshot (row-value based, not
    file bytes — Parquet metadata isn't stable). Deterministic across
    processes (fixed pandas hash key). List-typed columns (embeddings)
    hash by dtype-tagged raw bytes — array cells are unhashable and
    their truthiness breaks ``notna`` masking otherwise.

    The hash is the sum of the row hashes mod 2^64, so row order cannot
    change it and the frame is hashed as given (``key`` is kept for the
    callers' signature)."""
    if not len(df):
        return "0"

    def cell_bytes(v):
        if isinstance(v, (np.ndarray, list, tuple)):
            a = np.asarray(v)
            return str(a.dtype).encode() + a.tobytes()
        return v

    s = df
    for c in df.columns:
        if df[c].dtype == object and any(
                isinstance(v, (np.ndarray, list, tuple)) for v in df[c]):
            if s is df:
                s = df.copy()  # never rewrite the caller's frame
            s[c] = s[c].map(cell_bytes)
    h = pd.util.hash_pandas_object(
        s.astype(object).where(s.notna(), None), index=False)
    return f"{int(h.sum()) & 0xFFFFFFFFFFFFFFFF:016x}"


def is_compaction_manifest(manifest: dict | None) -> bool:
    """True for a ``compact_deltas`` maintenance commit. Under the
    derived-maintenance contract (matview/index/layout refresh), a
    merge-on-read ingest commit carries its OWN effect (the key-
    restricted old/new diff of its delta — ``materialize_mor_commit_
    diff``), which makes compaction pure storage reorganization: its
    lineage lists the folded partitions so the lake's own bookkeeping
    stays uniform, but derived structures must fold a ZERO delta for it
    or they would double-count every folded change."""
    return bool(manifest and manifest.get("compacted_delta_partitions"))


def mor_commit_delta_pids(manifest: dict, cid: int) -> list[int]:
    """Partitions whose pending delta list includes commit ``cid`` —
    i.e. the partitions a merge-on-read ingest commit touched."""
    return sorted(int(p) for p, v in manifest.get("partitions", {}).items()
                  if any(d["commit_id"] == cid
                         for d in v.get("deltas", [])))


def mor_diff_inputs_exist(root, man: dict, prev_man: dict | None,
                          cid: int) -> bool:
    """Whether every file ``materialize_mor_commit_diff`` would read is
    still on disk — this commit's delta files plus the touched
    partitions' base + earlier-delta chain at ``prev_man``. False (a
    GC'd input) routes derived maintenance to its full-recompute
    fallback, the same contract as the copy-on-write missing-old
    path."""
    root = _as_root(root)
    prev_parts = (prev_man or {}).get("partitions", {})
    for p in mor_commit_delta_pids(man, cid):
        ent = man["partitions"][str(p)]
        files = [d["file"] for d in ent["deltas"] if d["commit_id"] == cid]
        prev_ent = prev_parts.get(str(p)) or {}
        if prev_ent.get("file"):
            files.append(prev_ent["file"])
        files += [d["file"] for d in prev_ent.get("deltas", [])]
        if any(not (root / f).exists() for f in files):
            return False
    return True


def materialize_mor_commit_diff(root, man: dict, prev_man: dict | None,
                                cid: int, mor_kwargs: dict,
                                scratch_dir) -> list[tuple]:
    """Materialize a merge-on-read ingest commit's EXACT effect as one
    ``(new_file, old_file)`` pair of snapshot-schema parquet files per
    touched partition, in partition order, under ``scratch_dir`` — the
    same shape the copy-on-write old-vs-new partition diff feeds
    derived maintenance (matview partials, LSM index segments), so
    every consumer reuses its existing file-based scan unchanged.

    Exactness: LWW merges are per-key independent, so restricting both
    sides to the commit's own key set K (the keys in its delta file) is
    lossless — untouched keys appear identically on both sides of any
    wider diff and cancel. old = resolved state of the touched
    partitions at ``prev_man`` filtered to K (base ⊕ earlier deltas,
    conformed to the commit's target schema so the ± diff cancels
    column-by-column across evolution epochs); new = one
    ``_replay_step`` of this commit's delta over it — identical to the
    resolved state at ``man`` filtered to K by replay associativity.

    Scale: one Ray task per touched partition; old-side I/O is bounded
    by the touched partitions (like the COW diff), but everything
    downstream — tokenize/assign/shuffle/write — sees only the
    commit's OWN keys, which makes derived maintenance under MOR
    CHEAPER than under COW for small commits into big partitions.
    An empty side is None. The caller owns ``scratch_dir`` (create
    before, delete after consuming the scans)."""
    import ray.data as rd

    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    touched = {str(p): next(d for d in
                            man["partitions"][str(p)]["deltas"]
                            if d["commit_id"] == cid)
               for p in mor_commit_delta_pids(man, cid)}
    if not touched:
        return []
    entry = man["delta_commits"][str(cid)]
    target_json = entry["schema"]
    commit_ts_us = int(entry["commit_ts_us"])
    prev_parts = (prev_man or {}).get("partitions", {})
    prev_dc = (prev_man or {}).get("delta_commits", {})
    kw = dict(mor_kwargs)
    key, managed = kw["key"], kw["managed"]
    roots, scratchs = _as_root(root), str(scratch)

    def diff(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        target = schema_mod.schema_from_json(target_json)
        out = []
        for pid in batch["pid"].to_pylist():
            pid = int(pid)
            d = touched[str(pid)]
            changes = fs_read_table(_as_root(roots) / d["file"])
            keys = pc.unique(changes[key])
            old_tbl = _resolve_mor_pid(
                roots, prev_parts.get(str(pid)) or {}, prev_dc,
                key_filter=keys, **kw)
            if old_tbl is None:
                old_tbl = _snapshot_schema(target, managed).empty_table()
            old_tbl = _conform_snapshot(old_tbl, target, managed)
            new_tbl = _replay_step(old_tbl, changes, target,
                                   commit_ts_us=commit_ts_us, **kw)
            nf = of = ""
            if old_tbl.num_rows:
                of = f"{scratchs}/old-p{pid:05d}.parquet"
                pq.write_table(old_tbl, of)
            if new_tbl.num_rows:
                nf = f"{scratchs}/new-p{pid:05d}.parquet"
                pq.write_table(new_tbl, nf)
            out.append((pid, nf, of))
        return pa.table({"pid": [o[0] for o in out],
                         "new": [o[1] for o in out],
                         "old": [o[2] for o in out]})

    pids = sorted(touched, key=int)
    stats = (rd.from_arrow(pa.table({"pid": pa.array(
                [int(p) for p in pids], type=pa.int32())}))
             .repartition(len(pids))
             .map_batches(diff, batch_format="pyarrow")
             .to_pandas()  # ≤ touched-partition rows — paths only
             .sort_values("pid"))
    return [(n or None, o or None)
            for n, o in zip(stats["new"], stats["old"])]


def _chain_start_self_contained(man: dict, cid: int) -> bool:
    """With no previous manifest available, True iff every byte of
    state at ``man`` was produced by commit ``cid`` itself — a genuine
    chain-first ingest commit. False for a GC survivor with amputated
    history. Derived consumers must route False to their full-recompute
    fallback instead of folding the commit's touched partitions as if
    they were the whole table.

    Manifests record their chain parent (``prev_epoch``, None at a
    genuine start) — exact. Pre-``prev_epoch`` manifests fall back to a
    metadata heuristic: a maintenance commit (repartition / purge /
    backfill / delta compaction — all rewrite PRE-EXISTING state), a
    partition whose base file or delta chain predates this commit, or
    a base file this commit's lineage didn't write all prove amputated
    history (the heuristic cannot catch an ingest commit that happened
    to rewrite every live partition; ``prev_epoch`` can)."""
    if "prev_epoch" in man:
        return man["prev_epoch"] is None
    if man.get("truncated"):
        return True  # empty state — nothing amputated
    if any(k in man for k in ("repartitioned_from", "purged_tombstones",
                              "compacted_delta_partitions", "backfill")):
        return False
    touched = {int(ln["partition_id"]) for ln in man.get("lineage", [])}
    for p, v in man.get("partitions", {}).items():
        deltas = v.get("deltas", [])
        if any(d.get("commit_id") != cid for d in deltas):
            return False
        if v.get("file") and (int(p) not in touched or deltas):
            return False
    return True


def plan_commit_diff(lake, man: dict, prev_man: dict | None,
                     prev_cid: int | None, cid: int,
                     scratch_prefix: str = "chomper_diff_"):
    """One commit's derived-maintenance diff plan, uniform across
    copy-on-write, merge-on-read and compaction commits:
    returns ``(new_files, old_files, missing_old, scratch_dir)`` where
    the file lists are snapshot-schema parquet paths for the commit's
    ± sides, ``missing_old`` routes the caller to its full-recompute
    fallback (GC'd inputs / no previous manifest), and ``scratch_dir``
    (or None) is a temp dir the caller must remove after consuming the
    scans. Compaction commits and empty commits yield empty sides —
    a zero delta by the derived-maintenance contract."""
    import tempfile

    root = lake.root
    # no previous manifest: fine at a genuine chain start, a
    # full-recompute trigger when earlier manifests were GC'd away
    # (lake.compact removes old manifests, so the first RETAINED
    # commit is not necessarily the first commit)
    no_history = prev_man is None and (
        prev_cid is not None or not _chain_start_self_contained(man, cid))
    if is_compaction_manifest(man):
        return [], [], no_history, None
    mor_pids = mor_commit_delta_pids(man, cid)
    if mor_pids:
        missing_old = no_history \
            or not mor_diff_inputs_exist(root, man, prev_man, cid)
        if missing_old:
            return [], [], True, None
        scratch = tempfile.mkdtemp(prefix=scratch_prefix)
        pairs = materialize_mor_commit_diff(
            root, man, prev_man, cid, lake._mor_kwargs(), scratch)
        return ([n for n, _ in pairs if n], [o for _, o in pairs if o],
                False, scratch)
    touched = sorted({int(ln["partition_id"])
                      for ln in man.get("lineage", [])})
    new_files = [str(root / man["partitions"][str(p)]["file"])
                 for p in touched
                 if man["partitions"].get(str(p), {}).get("file")]
    old_files = []
    missing_old = no_history
    if prev_man is not None:
        for p in touched:
            part = prev_man["partitions"].get(str(p))
            if part is None or not part.get("file"):
                continue
            f = root / part["file"]
            if not f.exists():  # compacted away
                missing_old = True
                break
            old_files.append(str(f))
    return new_files, old_files, missing_old, None


def materialize_mor_resolved(root, man: dict, mor_kwargs: dict,
                             scratch_dir) -> list[str]:
    """Snapshot-schema parquet files of the FULL resolved state at
    ``man`` — delta-free partitions contribute their base file path
    as-is (no copy); delta-bearing ones are resolved (base ⊕ deltas,
    one Ray task per partition) into ``scratch_dir``. The full-build /
    full-recompute twin of ``materialize_mor_commit_diff`` — derived
    structures use it when they must scan whole-table state at a
    delta-bearing manifest (first build, or compacted-away history)."""
    import ray.data as rd

    if isinstance(_as_root(root), FsPath):
        # the resolve tasks build local path strings and write local
        # scratch — not yet routed through the fs layer; refuse HERE
        # with the same message the derived refresh guards use instead
        # of a TypeError deep inside a Ray task
        raise NotImplementedError(
            f"materialize_mor_resolved over an object-store lake root "
            f"({root}) is not supported yet; the lake's own "
            "ingest/read/maintenance surface is object-store-capable "
            "(state/fs.py)")
    parts = man.get("partitions", {})
    plain = [str(Path(root) / v["file"])
             for _, v in sorted(parts.items())
             if not v.get("deltas") and v.get("file")]
    pend = {p: v for p, v in parts.items() if v.get("deltas")}
    if not pend:
        return plain
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    dc = man.get("delta_commits", {})
    kw = dict(mor_kwargs)
    roots, scratchs = _as_root(root), str(scratch)

    def resolve(batch: pa.Table) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            pid = int(pid)
            tbl = _resolve_mor_pid(roots, pend[str(pid)], dc, **kw)
            f = ""
            if tbl is not None and tbl.num_rows:
                f = f"{scratchs}/resolved-p{pid:05d}.parquet"
                pq.write_table(tbl, f)
            out.append((pid, f))
        return pa.table({"pid": [o[0] for o in out],
                         "file": [o[1] for o in out]})

    pids = sorted(pend, key=int)
    stats = (rd.from_arrow(pa.table({"pid": pa.array(
                [int(p) for p in pids], type=pa.int32())}))
             .repartition(len(pids))
             .map_batches(resolve, batch_format="pyarrow")
             .to_pandas())
    return plain + [f for f in stats["file"] if f]


class LakeTable:
    """A keyed, partitioned, versioned Parquet table (the upsert target).

    Mirrors the configuration surface of the reference's ``Upserter``
    builder (``contrib/sql/exporters.py:202-322``): key (identifiers),
    ``overwrite`` (LWW vs fill-null-only), ``protected`` columns,
    ``timestamps()`` managed columns, change listeners (always-on side
    output unless ``collect_changes=False``).
    """

    # staged-volume skew thresholds (detect_hot_partitions); class
    # attributes so a deployment (or test) can tune per instance
    hot_factor: float = 4.0
    hot_min_rows: int = 100_000

    def __init__(self, root: str | Path, key: str = "url",
                 version: tuple[str, str] = ("warc_ts", "seq"),
                 num_partitions: int | None = None, overwrite: bool = True,
                 protected: tuple[str, ...] = (),
                 managed_timestamps: bool = False,
                 collect_changes: bool = True,
                 insert_missing: bool = True,
                 staging_root: str | Path | None = None,
                 id_field: str | None = None,
                 merge_on_read: bool = False,
                 filesystem=None):
        if merge_on_read:
            # MOR defers the merge to read()/compact_deltas(); anything
            # that needs the BASE state at commit time is unavailable.
            if collect_changes:
                raise ValueError(
                    "merge_on_read defers merges past commit time, so "
                    "commit-time change listeners cannot diff old values; "
                    "pass collect_changes=False (or use copy-on-write)")
            if id_field:
                raise ValueError(
                    "id_field assigns surrogate ids against the base "
                    "state at commit time; unsupported with merge_on_read")
        self.merge_on_read = merge_on_read
        # local str/Path roots stay pathlib.Path (the proven POSIX
        # fast-path); ``filesystem=`` or a URI root becomes an FsPath
        # running the object-store-safe protocol (state/fs.py)
        self.root = resolve_root(root, filesystem)
        # staging is transient shuffle data: on a cluster it lives on the
        # shared lake filesystem (or local NVMe shuffle dirs); single-node
        # callers may point it at tmpfs — correctness only needs it to
        # survive until the epoch's manifest commit. Each LakeTable
        # instance stages under its own attempt=<id> subdir so two racing
        # runners never read/wipe each other's staging (their merges stay
        # deterministic-identical; manifests are first-writer-wins).
        self.staging_root = resolve_root(staging_root) if staging_root \
            else self.root
        self._attempt = uuid.uuid4().hex[:10]
        self.key = key
        self.version = version
        # None = adopt the committed manifest's count (or the default on a
        # fresh lake); an explicit value is validated against the manifest
        # at first use — see PartitionMismatchError
        self._requested_partitions = num_partitions
        # the head manifest as lookups last parsed it (_lookup_manifest)
        self._lookup_head: _ReadManifest | None = None
        self.num_partitions = num_partitions or DEFAULT_NUM_PARTITIONS
        self.overwrite = overwrite
        self.protected = protected
        self.managed_timestamps = managed_timestamps
        self.collect_changes = collect_changes
        self.insert_missing = insert_missing
        # opt-in surrogate identity column (reference ``id_field()``,
        # sql/exporters.py:64-68): dense int64 ids assigned at commit,
        # stable across epochs, never reused. Costs one extra key-column
        # pass per commit (the new-key count phase).
        self.id_field = id_field

    # -- metadata ---------------------------------------------------------
    def _sync_partitions(self, m: dict | None = None) -> int:
        """Reconcile the partition count with the committed manifest —
        called at every commit / lookup entry point. Manifest present →
        adopt its value (raise if an explicit constructor arg disagrees);
        no manifest → the requested value (or the default) seeds the
        first commit. ``m``: the head manifest, when already loaded."""
        if m is None:
            m = load_manifest(self.root)
        if m is not None and m.get("num_partitions") is not None:
            committed = int(m["num_partitions"])
            req = self._requested_partitions
            if req is not None and req != committed:
                raise PartitionMismatchError(
                    f"lake at {self.root} is committed with "
                    f"num_partitions={committed}, but this LakeTable was "
                    f"constructed with num_partitions={req}")
            self.num_partitions = committed
        return self.num_partitions

    def last_committed_epoch(self) -> int | None:
        eps = committed_epochs(self.root)
        return eps[-1] if eps else None

    def last_applied_log_epoch(self) -> int | None:
        """The binlog cursor: highest source-log epoch applied to the
        table. Decoupled from ``last_committed_epoch`` (the manifest-chain
        id) so maintenance commits — purge/compact between tail polls —
        never advance the cursor past unapplied log epochs. Maintenance
        manifests carry the cursor forward; ``truncate`` resets it (full
        refresh = re-feed from scratch). Pre-decoupling manifests have no
        ``log_epoch`` field: there the two numberings coincide."""
        return log_cursor(load_manifest(self.root))

    def current_schema(self) -> pa.Schema | None:
        m = load_manifest(self.root)
        return schema_mod.schema_from_json(m["schema"]) if m else None

    def _mor_kwargs(self) -> dict:
        """Policy args for merge-on-read resolution. MOR defers the merge,
        so the READING LakeTable's policy flags (overwrite/protected/
        managed_timestamps/insert_missing) must match the writer's —
        copy-on-write bakes them in at commit time instead."""
        return dict(key=self.key, version_ts=self.version[0],
                    overwrite=self.overwrite, protected=self.protected,
                    managed=self.managed_timestamps,
                    insert_missing=self.insert_missing)

    def _resolved_hashes(self, m: dict) -> dict[str, str]:
        """Per-partition content hashes of delta-bearing partitions,
        resolved by replaying the pending deltas (one Ray task per
        partition; only hashes return to the driver)."""
        import ray.data as rd

        parts = {p: v for p, v in m["partitions"].items()
                 if v.get("deltas")}
        if not parts:
            return {}
        root = _as_root(self.root)
        dc = m.get("delta_commits", {})
        kw = self._mor_kwargs()
        key = self.key

        def hash_pid(batch: pa.Table) -> pa.Table:
            out_p, out_h = [], []
            for pid in batch["pid"].to_pylist():
                tbl = _resolve_mor_pid(root, parts[str(int(pid))], dc, **kw)
                out_p.append(str(int(pid)))
                out_h.append("0" if tbl is None else
                             snapshot_content_hash(tbl.to_pandas(), key))
            return pa.table({"pid": out_p, "hash": out_h})

        pids = sorted(parts, key=int)
        stats = (rd.from_arrow(pa.table({"pid": pa.array(
                    [int(p) for p in pids], type=pa.int32())}))
                 .repartition(len(pids))
                 .map_batches(hash_pid, batch_format="pyarrow")
                 .to_pandas())
        return {r.pid: r.hash for r in stats.itertuples(index=False)}

    def snapshot_hash(self) -> str:
        """Whole-table content hash from the manifest (per-partition
        hashes combined) — the replay-equivalence check. With pending
        merge-on-read deltas the delta-bearing partitions are resolved
        first (a Ray job), so the result equals what the copy-on-write
        chain would have recorded."""
        m = load_manifest(self.root)
        if not m:
            return "0"
        resolved = self._resolved_hashes(m) if manifest_has_deltas(m) else {}
        acc = 0
        for pid in sorted(m["partitions"]):
            acc ^= int(resolved.get(pid, m["partitions"][pid]["hash"]), 16)
        return f"{acc:016x}"

    # -- commit -----------------------------------------------------------
    def _envelope(self, target: pa.Schema) -> pa.Schema:
        return pa.schema(
            [pa.field("op", pa.string()), pa.field("seq", pa.int64())]
            + list(target))

    def _stage_writer(self, targets: dict[int, pa.Schema], head: dict | None):
        """Phase-A map fn: conform + partial LWW reduce (the combiner —
        a hot key leaves each block at most once, which is the salting
        step) + one uncompressed staging file per touched bucket, written
        to the lake's staging storage. No object-store all-to-all:
        measured ~2× faster and better-scaling than
        ``groupby().map_groups`` sort-shuffle for text payloads.
        Duplicate staging from retried map tasks is harmless — the merge
        dedups by (key, version).

        Buckets by ``head``'s partition count and wipes each epoch's
        staging left by a crashed attempt. The map fn returns one
        ``(epoch, pid, n)`` row per staged bucket run."""
        self._sync_partitions(head)
        for e in targets:
            self.wipe_staging(e)
        key, version, nb = self.key, self.version, self.num_partitions
        staging_base = self._staging_base
        env_json = {e: schema_mod.schema_to_json(self._envelope(t))
                    for e, t in targets.items()}

        def stage(t: pa.Table) -> pa.Table:
            import numpy as np

            out_pid, out_n, out_epoch = [], [], []
            if "epoch" in t.column_names:
                epochs_in_batch = pc_unique_int(t["epoch"])
            else:
                epochs_in_batch = list(env_json)  # single implicit epoch
            for e in epochs_in_batch:
                te = t.filter(pa.compute.equal(t["epoch"], e)) \
                    if "epoch" in t.column_names and len(epochs_in_batch) > 1 else t
                if "epoch" in te.column_names:
                    te = te.drop_columns(["epoch"])
                envelope = schema_mod.schema_from_json(env_json[e])
                # a drain reads many epochs' files in one task; Ray's
                # batch-level schema unification back-fills later epochs'
                # additive columns as ALL-NULL onto earlier epochs' rows.
                # Those artifacts are safe to drop; a non-null column the
                # envelope doesn't know still fails loudly in conform.
                artifacts = [
                    c for c in te.column_names
                    if c not in envelope.names
                    and te[c].null_count == len(te)
                ]
                if artifacts:
                    te = te.drop_columns(artifacts)
                te = schema_mod.conform(te, envelope)
                te = lww_dedup_table(te, key, version)
                b = stable_bucket(te[key], nb)
                order = np.argsort(b, kind="stable")
                te = te.take(pa.array(order))
                bs = b[order]
                te = te.append_column(BUCKET_COL,
                                      pa.array(bs, type=pa.int32()))
                bounds = np.searchsorted(bs, np.arange(nb + 1))
                rng = _staging_range_size(nb)
                tid = uuid.uuid4().hex[:12]
                writer = None
                cur_rid = -1
                for p in range(nb):
                    lo, hi = int(bounds[p]), int(bounds[p + 1])
                    if hi <= lo:
                        continue
                    rid = p // rng
                    if rid != cur_rid:
                        if writer is not None:
                            writer.close()
                        d = staging_base / f"epoch={e:06d}" / f"r={rid:05d}"
                        writer = fs_parquet_writer(
                            d / f"{tid}.parquet", te.schema,
                            compression="none")
                        cur_rid = rid
                    # one row group per bucket → _bucket stats let the
                    # merge read exactly its own rows
                    writer.write_table(te.slice(lo, hi - lo),
                                       row_group_size=max(1, hi - lo))
                    out_pid.append(p)
                    out_n.append(hi - lo)
                    out_epoch.append(e)
                if writer is not None:
                    writer.close()
            return pa.table({"epoch": pa.array(out_epoch, type=pa.int64()),
                             "pid": pa.array(out_pid, type=pa.int32()),
                             "n": pa.array(out_n, type=pa.int64())})

        return stage

    @property
    def _staging_base(self) -> Path:
        return self.staging_root / _STAGING_DIR / f"attempt={self._attempt}"

    def wipe_staging(self, epoch: int) -> None:
        """Remove ``epoch``'s staging, and this attempt's directory once
        nothing else is staged in it."""
        stage_root = self._staging_base / f"epoch={epoch:06d}"
        if fs_exists(stage_root):
            fs_rmtree(stage_root)
        fs_rmdir_if_empty(self._staging_base)

    def stage(self, changes_ds, targets: dict[int, pa.Schema],
              head: dict | None = None) -> StagedEpochs:
        """Phase A for one epoch or a backlog of them: stage
        ``changes_ds`` into per-bucket change files. ``targets`` maps
        each epoch to its target schema, in commit order; with more than
        one epoch the rows carry an ``epoch`` column. ``head``: the head
        manifest when the caller has already loaded it."""
        if head is None:
            head = load_manifest(self.root)
        t0 = time.perf_counter()
        stage = self._stage_writer(targets, head)
        staged = changes_ds.map_batches(stage, batch_format="pyarrow").to_pandas()
        return self.staged_epochs(head, targets, staged,
                                  time.perf_counter() - t0)

    def staged_epochs(self, head: dict | None, targets: dict[int, pa.Schema],
                      staged: pd.DataFrame, stage_s: float) -> StagedEpochs:
        """Collect the stage writer's ``(epoch, pid, n)`` rows into each
        epoch's touched and hot partitions."""
        touched, hot = {}, {}
        # an all-empty dataset loses column names through to_pandas
        if "pid" in staged.columns:
            for e, se in staged.groupby("epoch"):
                touched[int(e)] = sorted(int(p) for p in se["pid"].unique())
                hot[int(e)] = detect_hot_partitions(
                    se.groupby("pid")["n"].sum().to_dict(),
                    factor=self.hot_factor, min_rows=self.hot_min_rows,
                    warn_context=f"epoch {int(e)}")
        return StagedEpochs(head, dict(targets), touched, hot, stage_s)

    def _count_new_keys(self, epoch: int, touched_pids: list[int],
                        prev_files: dict[int, str]) -> dict[int, int]:
        """Phase B0 (only with ``id_field``): per touched partition, count
        staged keys absent from the base snapshot — key-column reads only,
        fanned out as Ray tasks; the driver sees one count per partition
        and turns them into dense id offsets."""
        import ray.data as rd

        root, staging_root = _as_root(self.root), self._staging_base
        key, nb = self.key, self.num_partitions
        rng = _staging_range_size(nb)

        def count(batch: pa.Table) -> pa.Table:
            out_pid, out_n = [], []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                files = fs_glob(staging_root / f"epoch={epoch:06d}"
                                / f"r={pid // rng:05d}", "*.parquet")
                keys: set = set()
                for f in files:
                    t = fs_read_table(f, columns=[key],
                                        filters=[(BUCKET_COL, "=", pid)])
                    keys.update(t[key].to_pylist())
                prev_rel = prev_files.get(pid)
                if prev_rel:
                    bt = fs_read_table(root / prev_rel, columns=[key])
                    keys.difference_update(bt[key].to_pylist())
                out_pid.append(pid)
                out_n.append(len(keys))
            return pa.table({"pid": pa.array(out_pid, type=pa.int32()),
                             "n_new": pa.array(out_n, type=pa.int64())})

        stats = (rd.from_arrow(pa.table({
                    "pid": pa.array(touched_pids, type=pa.int32())}))
                 .repartition(len(touched_pids))
                 .map_batches(count, batch_format="pyarrow")
                 .to_pandas())  # one row per partition — metadata only
        return {int(r.pid): int(r.n_new) for r in stats.itertuples(index=False)}

    def commit_staged(self, staged: StagedEpochs, *,
                      log_epoch: int | None = None) -> list[CommitResult]:
        """Phase B + one atomic manifest per epoch for a staging pass;
        returns one ``CommitResult`` per epoch of ``staged.targets``.
        Every touched partition merges in ONE dataset execution (each
        partition task threads its snapshot through the ordered epochs
        in-process), then the manifests land in epoch order. A
        single-epoch commit is the one-element plan. Each epoch lands at
        an allocated chain id (== its log epoch unless maintenance
        commits interleaved), derived from ``staged.head`` alone: a
        runner whose head went stale collides with the newer manifest
        and loses the exclusive create.

        Exactly-once: epochs at or below the head's binlog cursor are
        skipped, and so is the whole plan, before merging, when every
        manifest it would write already exists. Snapshots land before
        manifests; a crash between them re-enters from the committed
        cursor and deterministically overwrites the later snapshots. A
        manifest lost to a racing runner marks its epoch skipped — the
        winner wrote identical content — and later manifests still land.
        ``id_field`` needs each epoch's base for its id offsets, so such
        a plan commits epoch by epoch.

        ``log_epoch``: for ADMINISTRATIVE ingest-like commits
        (``delete_where``) whose events come from the engine, not the
        binlog — the plan's epochs are then chain ids, skipped at or
        below the chain head, and every manifest records ``log_epoch``
        as the binlog cursor so tail polls never skip pending log
        epochs."""
        import ray.data as rd

        if self.id_field and len(staged.targets) > 1:
            out = []
            for i, e in enumerate(staged.targets):
                out += self.commit_staged(replace(
                    staged, targets={e: staged.targets[e]},
                    head=staged.head if i == 0 else load_manifest(self.root),
                    stage_s=staged.stage_s if i == 0 else 0.0),
                    log_epoch=log_epoch)
            return out
        t0 = time.perf_counter()
        results = {e: CommitResult(epoch=e, skipped=True,
                                   hot_partitions=dict(staged.hot.get(e, {})))
                   for e in staged.targets}
        prev = staged.head
        floor = log_cursor(prev) if log_epoch is None \
            else (prev or {}).get("epoch")
        plan = [(e, t) for e, t in staged.targets.items()
                if floor is None or e > floor]
        # chain ids for the whole plan, allocated once against the head
        # (deterministic across racing runners at the same cursor — the
        # per-manifest exclusive create arbitrates)
        cids: dict[int, int] = {}
        head_id = (prev or {}).get("epoch")
        nxt = 0 if head_id is None else head_id + 1
        for e, _ in plan:
            cids[e] = nxt = max(nxt, e)
            results[e].commit_id = nxt
            nxt += 1
        if all(_manifest_path(self.root, c).exists() for c in cids.values()):
            # nothing left to commit, or a racer committed all of it
            for e in staged.targets:
                self.wipe_staging(e)
            return list(results.values())
        self._sync_partitions(prev)
        if not self.merge_on_read and manifest_has_deltas(prev):
            raise ValueError(
                f"lake at {self.root} has pending merge-on-read deltas; a "
                "copy-on-write commit would silently drop them — construct "
                "with merge_on_read=True or run compact_deltas() first")
        prev_parts = (prev or {}).get("partitions", {})
        prev_files = {int(p): v["file"] for p, v in prev_parts.items()}

        id_starts: dict[int, int] = {}
        next_max_id = (prev or {}).get("max_id")
        touched0 = staged.touched.get(plan[0][0], [])
        if self.id_field and touched0:  # a one-epoch plan (see above)
            counts = self._count_new_keys(plan[0][0], touched0, prev_files)
            acc = int(next_max_id or 0) + 1
            for pid in sorted(counts):
                id_starts[pid] = acc
                acc += counts[pid]
            next_max_id = acc - 1

        merger = (_MorDeltaWriter if self.merge_on_read else _PartitionMerger)(
            root=_as_root(self.root), staging_root=self._staging_base,
            prev_files=prev_files,
            plan=[(e, cids[e], schema_mod.schema_to_json(t),
                   commit_ts_for(cids[e])) for e, t in plan],
            key=self.key, version_ts=self.version[0],
            overwrite=self.overwrite, protected=self.protected,
            managed_timestamps=self.managed_timestamps,
            collect_changes=self.collect_changes,
            insert_missing=self.insert_missing,
            num_partitions=self.num_partitions,
            id_field=self.id_field, id_starts=id_starts)
        all_pids = sorted(set().union(
            *[staged.touched.get(e, []) for e, _ in plan]))

        def merge_partitions(batch: pa.Table, _m=merger) -> pa.Table:
            return _m(batch)

        if all_pids:
            stats = (rd.from_arrow(pa.table({"pid": pa.array(
                        all_pids, type=pa.int32())}))
                     .repartition(len(all_pids))
                     .map_batches(merge_partitions, batch_format="pyarrow")
                     .to_pandas()  # ≤ pids × epochs rows — metadata only
                     # task completion order varies: fix the lineage order
                     .sort_values(["epoch", "partition_id"]))
        else:  # an empty epoch still commits (cursor advances, no-op data)
            stats = pd.DataFrame(columns=[
                "partition_id", "epoch", "file", "rows", "live_rows",
                "deleted_rows", "events_in", "change_events",
                "changes_file", "hash", "wall_s"])
        merge_s = time.perf_counter() - t0
        for e in staged.targets:
            self.wipe_staging(e)
        # per-epoch timings: the one staging job's wall goes whole on the
        # first epoch; the one merge job's wall is split by each epoch's
        # share of the per-partition merge walls the tasks measured
        # (all on the first epoch when nothing was measured)
        walls = [float(stats.loc[stats["epoch"] == e, "wall_s"].sum())
                 for e, _ in plan]
        if sum(walls) <= 0:
            walls = [1.0] + [0.0] * (len(plan) - 1)

        partitions = dict(prev_parts)  # carry forward untouched partitions
        delta_commits = dict((prev or {}).get("delta_commits") or {})
        last_cid = head_id
        for i, (e, target) in enumerate(plan):
            cid, schema_json = cids[e], schema_mod.schema_to_json(target)
            stage_s = staged.stage_s if i == 0 else 0.0
            e_merge_s = merge_s * walls[i] / sum(walls)
            es = stats[stats["epoch"] == e]
            lineage = []
            for r in es.itertuples(index=False):
                if self.merge_on_read:
                    ent = dict(partitions.get(str(r.partition_id))
                               or {"file": None, "rows": 0, "live_rows": 0,
                                   "hash": "0"})
                    ent["deltas"] = [*ent.get("deltas", []),
                                     {"file": r.file, "rows": int(r.rows),
                                      "commit_id": cid, "hash": r.hash}]
                    partitions[str(r.partition_id)] = ent
                else:
                    partitions[str(r.partition_id)] = {
                        "file": r.file, "rows": int(r.rows),
                        "live_rows": int(r.live_rows), "hash": r.hash,
                    }
                lineage.append({
                    "partition_id": int(r.partition_id), "epoch": e,
                    "events_in": int(r.events_in),
                    "rows": int(r.rows), "live_rows": int(r.live_rows),
                    "deleted_rows": int(r.deleted_rows),
                    "change_events": int(r.change_events),
                    "changes_file": r.changes_file or None,
                    "wall_s": float(r.wall_s),
                })
            manifest = {
                "epoch": cid,
                "log_epoch": e if log_epoch is None else log_epoch,
                "key": self.key,
                "prev_epoch": last_cid,
                "num_partitions": self.num_partitions,
                "schema": schema_json,
                "commit_ts_us": commit_ts_for(cid),
                "partitions": dict(partitions),
                "lineage": lineage,
                "wall_s": round(stage_s + e_merge_s, 4),
            }
            if next_max_id is not None:
                manifest["max_id"] = int(next_max_id)
            if self.merge_on_read:
                delta_commits[str(cid)] = {
                    "schema": schema_json, "commit_ts_us": commit_ts_for(cid),
                    "log_epoch": e}
                manifest["merge_on_read"] = True
                manifest["delta_commits"] = dict(delta_commits)
            last_cid = cid  # chain parent for the next manifest
            res = results[e]
            res.wall_s, res.stage_s, res.merge_s = \
                stage_s + e_merge_s, stage_s, e_merge_s
            if not _commit_manifest_exclusive(_manifest_path(self.root, cid),
                                              manifest):
                continue  # lost the race: stays skipped
            res.skipped = False
            res.partitions_touched = len(es)
            res.rows_upserted = int(es["events_in"].sum())
            res.rows_deleted = int(es["deleted_rows"].sum())
            # under merge-on-read the live count is unknown until
            # resolution (read/compact_deltas) — report -1, not a stale sum
            res.total_rows = (-1 if self.merge_on_read else
                              sum(int(v["live_rows"])
                                  for v in partitions.values()))
            res.lineage = lineage
        return list(results.values())

    def commit_epoch(self, changes_ds, epoch: int,
                     schema_hint: pa.Schema | None = None) -> CommitResult:
        """Apply one epoch's (transformed) change events. Exactly-once:
        if ``epoch`` is already in the manifest log this is a no-op.

        ``changes_ds``: Ray Dataset with the event envelope (``op``,
        ``seq``) + data columns; ``html`` should already be dropped /
        ``text`` extracted by the upstream transform chain.
        """
        head = load_manifest(self.root)
        applied = log_cursor(head)
        if applied is not None and epoch <= applied:
            return CommitResult(epoch=epoch, skipped=True)
        if schema_hint is None:
            schema_hint = changes_ds.schema()  # may execute one block
        staged = self.stage(changes_ds, plan_targets(head, {epoch: schema_hint}),
                            head)
        return self.commit_staged(staged)[0]

    # -- read -------------------------------------------------------------
    def files(self, as_of_epoch: int | None = None) -> list[str]:
        """Live data files — of the latest commit, or any committed epoch
        (time travel: every manifest holds the full partition→file map)."""
        # base snapshots only: a merge-on-read partition that has never
        # been compacted has no base file yet (file=None); callers that
        # need the RESOLVED state must go through read() / read_pandas()
        return [str(p) for p in self._file_paths(as_of_epoch)]

    def _file_paths(self, as_of_epoch: int | None = None) -> list:
        """``files()`` as path OBJECTS (Path or FsPath) — internal read
        paths use these so an object-store root keeps its filesystem."""
        m = load_manifest(self.root, as_of_epoch)
        if not m:
            return []
        return [self.root / v["file"]
                for _, v in sorted(m["partitions"].items()) if v.get("file")]

    def _rd_read_parquet(self, paths: list, **kw):
        """``ray.data.read_parquet`` over lake paths, routing through
        the lake filesystem when the root is an FsPath."""
        import ray.data as rd

        if isinstance(self.root, FsPath):
            return rd.read_parquet([p.key if isinstance(p, FsPath) else p
                                    for p in paths],
                                   filesystem=self.root.fs, **kw)
        return rd.read_parquet([str(p) for p in paths], **kw)

    def _read_resolved(self, m: dict, columns, include_deleted: bool,
                       include_internal: bool):
        """Merge-on-read Dataset read: one resolve task per partition
        replays that partition's pending deltas over its base snapshot
        (column-pruned to the request), then applies the same tombstone
        filter / projection as the snapshot path. Streaming: only
        resolved blocks flow; nothing is materialized on the driver."""
        import ray.data as rd

        parts = {p: v for p, v in m["partitions"].items()
                 if v.get("file") or v.get("deltas")}
        root = _as_root(self.root)
        dc = m.get("delta_commits", {})
        kw = self._mor_kwargs()
        target = schema_mod.schema_from_json(m["schema"])
        if columns is not None:
            needed = set(columns) | {self.key, self.version[0]}
            target = pa.schema([f for f in target if f.name in needed])
        final_schema = _snapshot_schema(target, self.managed_timestamps)
        if columns is not None:
            out_schema = pa.schema([final_schema.field(c) for c in columns])
        elif include_internal:
            out_schema = final_schema
        else:
            out_schema = pa.schema([f for f in final_schema
                                    if f.name not in INTERNAL_COLS])

        def resolve(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            out = []
            for pid in batch["pid"].to_pylist():
                t = _resolve_mor_pid(root, parts[str(int(pid))], dc,
                                     columns=columns, **kw)
                if t is None or t.num_rows == 0:
                    continue
                # old untouched partitions may predate the latest schema:
                # conform (add-null / widen) so every block is uniform
                t = schema_mod.conform(t, final_schema)
                if not include_deleted:
                    t = t.filter(pc.invert(t[INTERNAL_DELETED]))
                out.append(t.select(out_schema.names))
            if not out:
                return out_schema.empty_table()
            return pa.concat_tables(out)

        pids = sorted(parts, key=int)
        if not pids:
            raise FileNotFoundError(
                f"lake at {self.root} has no committed data")
        return (rd.from_arrow(pa.table({"pid": pa.array(
                    [int(p) for p in pids], type=pa.int32())}))
                .repartition(len(pids))
                .map_batches(resolve, batch_format="pyarrow"))

    def _pushdown_safe(self, m: dict, wcols: list[str]) -> bool:
        """True when every live snapshot file is KNOWN to contain every
        predicate column, so the parquet scanner can filter by row-group
        statistics. Metadata-only: each file's name encodes the commit
        that wrote it; that manifest's schema says what it contains. A
        GC'd manifest (compact) means unknown → unsafe → the caller
        falls back to the residual kernel filter."""
        import re

        eps = set()
        for v in m["partitions"].values():
            f = v.get("file")
            if not f:
                return False
            mt = re.search(r"snap-(\d+)", f)
            if not mt:
                return False
            eps.add(int(mt.group(1)))
        need = set(wcols)
        for e in eps:
            try:
                man = load_manifest(self.root, e)
            except FileNotFoundError:
                man = None  # GC'd manifest: provenance unknowable
            if man is None:
                return False
            if not need <= {d["name"] for d in man["schema"]}:
                return False
        return True

    def _read_where(self, m: dict, where, columns, include_deleted: bool,
                    include_internal: bool, as_of_epoch):
        """Predicate-filtered read. Pushdown path: the Expression
        compiles to a ``pyarrow.dataset`` filter (plus the tombstone
        term) so row groups prune by column statistics before any bytes
        leave storage. Fallback (schema evolution left a file without a
        predicate column, manifest GC'd, or pending MOR deltas): stream
        blocks, conform to the manifest schema (null-fill the evolved
        columns) and apply the compiled Arrow-kernel mask — same match
        semantics (nulls don't match) either way."""
        import ray.data as rd

        target = schema_mod.schema_from_json(m["schema"])
        wcols = sorted(where.columns())
        missing = [c for c in wcols if c not in target.names]
        if missing:
            raise KeyError(
                f"predicate references column(s) {missing} not in the "
                f"lake schema {target.names}")

        if not manifest_has_deltas(m) and self._pushdown_safe(m, wcols):
            import pyarrow.dataset as pds

            f = where.to_arrow_dataset()
            if not include_deleted:
                f = f & (pds.field(INTERNAL_DELETED) == False)  # noqa: E712
            files = self._file_paths(as_of_epoch)
            if columns is not None:
                ds = self._rd_read_parquet(
                    files, columns=list(dict.fromkeys(columns)), filter=f)
            else:
                ds = self._rd_read_parquet(files, partitioning=None,
                                           filter=f)
                if not include_internal:
                    drop = list(INTERNAL_COLS)
                    ds = ds.map_batches(
                        lambda t: t.drop_columns(
                            [c for c in drop if c in t.column_names]),
                        batch_format="pyarrow")
            return ds

        read_cols = None if columns is None else \
            list(dict.fromkeys([*columns, *wcols]))
        base = self.read(columns=read_cols,
                         include_deleted=include_deleted,
                         include_internal=True if columns is None
                         else include_internal,
                         as_of_epoch=as_of_epoch)
        spec = m["schema"]
        out_cols = tuple(columns) if columns is not None else None
        internal = include_internal

        def residual(t: pa.Table, _spec=spec, _w=where,
                     _cols=out_cols) -> pa.Table:
            tgt = schema_mod.schema_from_json(_spec)
            for c in _w.columns():
                if c not in t.column_names:
                    # pre-evolution block: the column reads as null
                    t = t.append_column(
                        c, pa.nulls(t.num_rows, type=tgt.field(c).type))
            t = t.filter(_w.matches(t))
            if _cols is not None:
                return t.select(list(_cols))
            if not internal:
                t = t.drop_columns([c for c in INTERNAL_COLS
                                    if c in t.column_names])
            # uniform column order across evolved/unevolved blocks
            order = [f.name for f in tgt if f.name in t.column_names]
            order += [c for c in t.column_names if c not in order]
            return t.select(order)

        return base.map_batches(residual, batch_format="pyarrow")

    def read(self, columns=None, include_deleted: bool = False,
             include_internal: bool = False, as_of_epoch: int | None = None,
             where=None):
        """Table state as a streaming Dataset (no materialization);
        ``as_of_epoch`` reads a historical snapshot. Pending merge-on-read
        deltas are resolved inside the read tasks (``_read_resolved``).
        ``where`` (a ``functions.expr.Expression``) filters with parquet
        row-group pushdown when provably safe (``_read_where``)."""
        import ray.data as rd

        m = load_manifest(self.root, as_of_epoch)
        if where is not None:
            if not m:
                raise FileNotFoundError(
                    f"lake at {self.root} has no committed data")
            return self._read_where(m, where, columns, include_deleted,
                                    include_internal, as_of_epoch)
        if manifest_has_deltas(m):
            return self._read_resolved(m, columns, include_deleted,
                                       include_internal)
        files = self._file_paths(as_of_epoch)
        if not files:
            raise FileNotFoundError(f"lake at {self.root} has no committed data")
        if columns is None:
            # partitioning=None: the p=NNNNN layout must not be
            # hive-inferred into a spurious column
            ds = self._rd_read_parquet(files, columns=None,
                                       partitioning=None)
        else:
            # the tombstone filter needs _deleted even when pruned out —
            # read it alongside, drop after filtering (same as lookup()).
            # NOTE: columns= + partitioning=None together hit a Ray bug
            # (UnboundLocalError); with an explicit column list the hive
            # column is pruned anyway, so partitioning is left default.
            read_cols = list(dict.fromkeys([*columns, INTERNAL_DELETED]))
            ds = self._rd_read_parquet(files, columns=read_cols)
        if not include_deleted:
            ds = ds.map_batches(
                lambda t: t.filter(pa.compute.invert(t[INTERNAL_DELETED])),
                batch_format="pyarrow",
            )
        if columns is not None:
            # exactly the requested columns (lookup() contract)
            ds = ds.map_batches(lambda t, k=tuple(columns): t.select(list(k)),
                                batch_format="pyarrow")
        elif not include_internal:
            drop = [c for c in INTERNAL_COLS]
            ds = ds.map_batches(
                lambda t: t.drop_columns([c for c in drop if c in t.column_names]),
                batch_format="pyarrow",
            )
        return ds

    def _lookup_manifest(self, as_of_epoch: int | None
                         ) -> _ReadManifest | None:
        """The manifest a lookup reads. The head is parsed again only
        when the chain's newest id or that manifest's text changed since
        the last lookup through this table; chain ids are not dense (a
        commit takes its log epoch when that is past the head), so the
        newest id comes from the listing, not from probing head + 1. A
        missing ``as_of_epoch`` raises ``ValueError``."""
        eps = committed_epochs(self.root)
        if as_of_epoch is not None:
            if as_of_epoch not in eps:
                raise ValueError(
                    f"as_of_epoch={as_of_epoch} is not committed in "
                    f"{self.root}; epochs still committed: {eps}")
            return _ReadManifest.parse(as_of_epoch, fs_read_text(
                _manifest_path(self.root, as_of_epoch)))
        if not eps:
            return None
        text = fs_read_text(_manifest_path(self.root, eps[-1]))
        head = self._lookup_head
        if head is None or head.epoch != eps[-1] or head.text != text:
            head = self._lookup_head = _ReadManifest.parse(eps[-1], text)
        return head

    def _lookup_key(self, key_value, schema: pa.Schema):
        """``key_value`` as the key column's Python value (None for a
        null key); a value the column cannot hold raises ``TypeError``."""
        if key_value is None or key_value is pd.NA:
            return None
        if self.key not in schema.names:
            return key_value
        typ = schema.field(self.key).type
        try:
            return pa.scalar(key_value, type=typ).as_py()
        except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError,
                ValueError, OverflowError) as e:
            raise TypeError(
                f"lookup key {key_value!r} ({type(key_value).__name__}) "
                f"does not fit key column {self.key!r} of type {typ}") \
                from e

    def lookup(self, key_value, columns=None, as_of_epoch: int | None = None):
        """Point lookup: read ONLY the one partition the key hashes to
        (the same ``stable_bucket`` that routed writes), column-pruned.
        O(one partition file), not a table scan — the lake-native
        replacement for the reference's per-row SELECT
        (contrib/postgres.py:354-358). A null key finds no row (LWW
        drops null keys); a key the key column cannot hold raises
        ``TypeError``; an ``as_of_epoch`` no manifest holds raises
        ``ValueError``."""
        import pyarrow.compute as pc

        rm = self._lookup_manifest(as_of_epoch)
        if rm is None:
            return pd.DataFrame()
        m = rm.manifest
        if as_of_epoch is None:
            self._sync_partitions(m)  # adopt/validate the committed count
        key_value = self._lookup_key(key_value, rm.schema)
        # bucket with the count the manifest was written under: a
        # repartition since ``as_of_epoch`` changed the current one
        pid = int(stable_bucket(
            [key_value], int(m.get("num_partitions") or self.num_partitions))[0])
        part = m["partitions"].get(str(pid))
        if part is None:
            return pd.DataFrame()
        # the key's rows of the one partition: the base read with the key
        # pushed down, then (merge-on-read) replayed through the pending
        # deltas, filtered to the key first — exact, merges are per-key
        # independent. Still O(one partition's files), no scan. A null
        # key filters by the empty key set.
        tbl = _resolve_mor_pid(
            self.root, part, m.get("delta_commits", {}),
            columns=columns, key_filter=[] if key_value is None else key_value,
            **self._mor_kwargs())
        if tbl is None:
            return pd.DataFrame()
        # drop tombstones, conform to the manifest's schema (a partition
        # no commit touched since an evolution lacks the new columns,
        # which read as null) and pick columns, all in Arrow; then
        # convert the (usually one-row) answer to pandas once, without
        # the schema metadata, so the frame gets the default RangeIndex
        tbl = tbl.filter(pc.invert(tbl[INTERNAL_DELETED]))
        names = rm.names
        want = names if columns is None else list(columns)
        have = set(tbl.column_names)
        absent = [c for c in dict.fromkeys(want) if c not in have]
        if absent:
            unknown = [c for c in absent if c not in names]
            if unknown:
                raise KeyError(f"column(s) {unknown} not in the lake schema "
                               f"{names}")
            for c in absent:
                tbl = tbl.append_column(rm.schema.field(c), pa.nulls(
                    tbl.num_rows, type=rm.schema.field(c).type))
        if columns is None:
            want = names + [c for c in tbl.column_names
                            if c not in names and c not in INTERNAL_COLS]
        return tbl.select(want).replace_schema_metadata() \
            .to_pandas(use_threads=False)

    def read_pandas(self, **kw) -> pd.DataFrame:
        """Small-table convenience for tests: full snapshot as pandas.
        Resolves pending merge-on-read deltas driver-side (no Ray)."""
        m = load_manifest(self.root)
        if manifest_has_deltas(m):
            mkw = self._mor_kwargs()
            dc = m.get("delta_commits", {})
            tables = [t for t in
                      (_resolve_mor_pid(self.root, v, dc, **mkw)
                       for _, v in sorted(m["partitions"].items(),
                                          key=lambda kv: int(kv[0])))
                      if t is not None]
        else:
            tables = [fs_read_table(f) for f in self._file_paths()]
        if not tables:
            return pd.DataFrame()
        tbl = pa.concat_tables(tables, promote_options="default")
        df = tbl.to_pandas()
        if not kw.get("include_deleted"):
            df = df[~df[INTERNAL_DELETED]]
        if not kw.get("include_internal"):
            df = df.drop(columns=[c for c in INTERNAL_COLS if c in df.columns])
        return df.sort_values(self.key, kind="stable").reset_index(drop=True)

    def lineage(self) -> pd.DataFrame:
        """Queryable lineage: one row per (partition, epoch) commit."""
        rows = []
        for e in committed_epochs(self.root):
            m = load_manifest(self.root, e)
            rows.extend(m.get("lineage", []))
        return pd.DataFrame(rows)

    def _changes_horizon(self) -> int | None:
        """LOG epochs strictly below this have had their change files
        pruned (``prune_change_events``). None = nothing pruned."""
        p = self.root / _CHANGES_DIR / "_HORIZON"
        return int(fs_read_text(p)) if fs_exists(p) else None

    def prune_change_events(self, before_epoch: int) -> dict:
        """Retention for the change-listener log: delete change files of
        LOG epochs < ``before_epoch``. At 10^10 events the change log is
        itself unbounded data; the contract is the usual log-retention
        one — every subscriber's checkpoint must have passed the
        horizon. The horizon marker lands ATOMICALLY before any unlink,
        so a crash mid-prune leaves a consistent feed (files at or past
        the horizon intact, reads below it refused); metadata-only +
        O(files) unlinks, no data read."""
        cur = self._changes_horizon()
        horizon = max(before_epoch, cur or 0)
        fs_write_text_atomic(self.root / _CHANGES_DIR / "_HORIZON",
                             str(horizon))
        removed = 0
        for e, f in self._change_files(_ignore_horizon=True):
            if e < horizon and fs_exists(f):
                fs_unlink(f)
                removed += 1
        return {"removed_files": removed, "horizon": horizon}

    def _change_files(self, _ignore_horizon: bool = False
                      ) -> list[tuple[int, str]]:
        horizon = None if _ignore_horizon else self._changes_horizon()
        out = []
        for e in committed_epochs(self.root):
            m = load_manifest(self.root, e)
            for ln in m.get("lineage", []):
                if ln.get("changes_file"):
                    # lineage rows carry the LOG epoch (the user-facing
                    # change-event epoch; the manifest id may differ)
                    le = int(ln.get("epoch", e))
                    if horizon is not None and le < horizon:
                        continue  # pruned by retention
                    out.append((le, self.root / ln["changes_file"]))
        return out

    def change_events_ds(self, since_epoch: int | None = None):
        """Committed change-listener events as a STREAMING Dataset
        (url, field, event, epoch) — the downstream-subscription read
        path; at scale the change log is itself big data. The epoch is
        reconstructed per row from the file path (epoch-NNNNNN naming).

        ``since_epoch``: resume a subscription — only events from LOG
        epochs strictly greater are read (file-level pruning off the
        lineage metadata; a consumer checkpoints the last epoch it
        processed, exactly like the engine's own binlog cursor). A
        request reaching below a retention horizon
        (``prune_change_events``) refuses loudly instead of silently
        returning a partial feed."""
        import ray.data as rd

        horizon = self._changes_horizon()
        if horizon is not None and \
                (since_epoch is None or since_epoch < horizon - 1):
            raise ValueError(
                f"change feed pruned below epoch {horizon} "
                f"(prune_change_events); pass since_epoch >= "
                f"{horizon - 1} or re-bootstrap the consumer from a "
                "snapshot read")
        files = self._change_files()
        if since_epoch is not None:
            files = [(e, f) for e, f in files if e > since_epoch]
        if not files:
            return rd.from_arrow(pa.schema(
                [pa.field(self.key, pa.string()),
                 pa.field("field", pa.string()),
                 pa.field("event", pa.string()),
                 pa.field("epoch", pa.int64())]).empty_table())
        if isinstance(self.root, FsPath):
            ds = rd.read_parquet([f.key for _, f in files],
                                 filesystem=self.root.fs,
                                 partitioning=None, include_paths=True)
        else:
            ds = rd.read_parquet([str(f) for _, f in files],
                                 partitioning=None, include_paths=True)

        def add_epoch(t: pa.Table) -> pa.Table:
            import re

            # epoch-<log>[-c<commit_id>].parquet — first group is the
            # user-facing log epoch
            eps = [int(re.search(r"epoch-(\d+)", p).group(1))
                   for p in t["path"].to_pylist()]
            return t.drop_columns(["path"]).append_column(
                "epoch", pa.array(eps, type=pa.int64()))

        return ds.map_batches(add_epoch, batch_format="pyarrow")

    def change_events(self) -> pd.DataFrame:
        """Driver-side convenience frame of all change events (tests /
        small tables); the scale path is ``change_events_ds``."""
        if self._changes_horizon() is not None:
            raise ValueError(
                "change feed has a retention horizon; use "
                "change_events_ds(since_epoch=...) instead")
        files = self._change_files()
        if not files:
            return pd.DataFrame(columns=[self.key, "field", "event", "epoch"])
        frames = []
        for e, f in files:
            df = fs_read_table(f).to_pandas()
            df["epoch"] = e
            frames.append(df)
        return pd.concat(frames, ignore_index=True)

    # -- full refresh ------------------------------------------------------
    def truncate(self, epoch: int | None = None) -> CommitResult:
        """Full-refresh commit: the table state after this commit is empty
        (reference ``PostgresTruncator``, contrib/postgres.py:262-292 —
        used as a pipeline step before re-feeding). Data files of earlier
        snapshots remain on disk for time travel until compaction; only
        the manifest pointer changes. Exactly-once like any commit.

        Resets the binlog cursor (``log_epoch: None``) so the re-feed
        replays the source from scratch. ``epoch=None`` auto-allocates
        the next chain id."""
        last = self.last_committed_epoch()
        if epoch is None:
            epoch = 0 if last is None else last + 1
        elif last is not None and epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(self.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)
        self._sync_partitions()
        prev = load_manifest(self.root)
        manifest = {
            "epoch": epoch,
            "log_epoch": None,
            "key": self.key,
            "prev_epoch": (prev or {}).get("epoch"),
            "num_partitions": (prev or {}).get("num_partitions",
                                               self.num_partitions),
            "schema": (prev or {}).get("schema", []),
            "commit_ts_us": commit_ts_for(epoch),
            "partitions": {},
            "lineage": [],
            "truncated": True,
            "wall_s": 0.0,
        }
        if (prev or {}).get("max_id") is not None:
            manifest["max_id"] = prev["max_id"]  # identity is never reused
        if not _commit_manifest_exclusive(_manifest_path(self.root, epoch),
                                          manifest):
            return CommitResult(epoch=epoch, skipped=True)
        return CommitResult(epoch=epoch, total_rows=0)

    # -- maintenance -------------------------------------------------------
    def delta_chain_lengths(self) -> dict[int, int]:
        """Pending merge-on-read delta-chain length per partition —
        the read-amplification signal ``compact_deltas(min_chain=...)``
        acts on (a read of partition p opens 1 base + chain(p) delta
        files). Metadata-only; empty when nothing is pending."""
        m = load_manifest(self.root)
        if not m:
            return {}
        return {int(p): len(v.get("deltas", []))
                for p, v in m["partitions"].items() if v.get("deltas")}

    def compact_deltas(self, epoch: int | None = None, *,
                       min_chain: int = 0) -> CommitResult:
        """Maintenance commit folding pending merge-on-read deltas into
        fresh base snapshots. One Ray task per selected delta-bearing
        partition replays ``_replay_step`` base → deltas in commit
        order, writes a new snapshot and hashes it once; untouched
        partitions carry forward. Folded partitions' hashes equal what a
        copy-on-write chain would have recorded (the last replay step
        yields the identical table), so COW-vs-MOR equivalence is
        checkable bit-for-bit.

        ``min_chain`` selects MINOR compaction: only partitions whose
        pending chain is at least that deep are folded; shallower
        chains stay pending (their ``delta_commits`` entries are
        carried). Since derived maintenance folds each MOR commit
        individually and treats any compaction as a zero delta, partial
        folds need no special handling downstream — minor compaction is
        purely the read-amplification lever (a partition read opens
        1 + chain files), paid only where chains are deep. Default 0 =
        major compaction (fold everything pending).

        Carries the binlog cursor forward unchanged (like
        ``purge_tombstones``); exactly-once via the manifest's exclusive
        create; deterministic snapshot content (sorted by key).
        ``epoch=None`` auto-allocates the next chain id."""
        import ray.data as rd

        t0 = time.perf_counter()
        last = self.last_committed_epoch()
        if epoch is None:
            if last is None:
                return CommitResult(epoch=-1, skipped=True)
            epoch = last + 1
        elif last is not None and epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(self.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)
        self._sync_partitions()
        prev = load_manifest(self.root)
        if not prev:
            return CommitResult(epoch=epoch, skipped=True)
        pend = {p: v for p, v in prev["partitions"].items()
                if len(v.get("deltas", [])) >= max(1, min_chain)}
        if not pend:
            return CommitResult(epoch=epoch, skipped=True)
        root = _as_root(self.root)
        dc = prev.get("delta_commits", {})
        kw = self._mor_kwargs()
        key = self.key

        def fold(batch: pa.Table) -> pa.Table:
            out = []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                tbl = _resolve_mor_pid(root, pend[str(pid)], dc, **kw)
                h = snapshot_content_hash(tbl.to_pandas(), key)
                rel = f"{_DATA_DIR}/p={pid:05d}/snap-{epoch:06d}m.parquet"
                fs_publish_table(tbl, _as_root(root) / rel, key=key)
                live = int(pa.compute.sum(pa.compute.invert(
                    tbl[INTERNAL_DELETED])).as_py() or 0)
                out.append((pid, rel, tbl.num_rows, live, h))
            return pa.table({
                "pid": [o[0] for o in out], "file": [o[1] for o in out],
                "rows": [o[2] for o in out], "live": [o[3] for o in out],
                "hash": [o[4] for o in out]})

        pids = sorted(pend, key=int)
        stats = (rd.from_arrow(pa.table({"pid": pa.array(
                    [int(p) for p in pids], type=pa.int32())}))
                 .repartition(len(pids))
                 .map_batches(fold, batch_format="pyarrow")
                 .to_pandas())  # ≤ num_partitions rows — metadata only

        partitions = {p: v for p, v in prev["partitions"].items()
                      if p not in pend}
        lineage = []
        for r in stats.itertuples(index=False):
            partitions[str(r.pid)] = {"file": r.file, "rows": int(r.rows),
                                      "live_rows": int(r.live),
                                      "hash": r.hash}
            # compaction DOES change base-file content (unlike purge, a
            # content no-op for live rows); the folded partitions appear
            # in lineage for uniform bookkeeping, but derived structures
            # detect this commit via is_compaction_manifest and fold a
            # ZERO delta — they already applied every delta commit
            # individually (materialize_mor_commit_diff), so diffing the
            # fold here would double-count
            lineage.append({
                "partition_id": int(r.pid), "epoch": epoch, "events_in": 0,
                "rows": int(r.rows), "live_rows": int(r.live),
                "deleted_rows": 0, "change_events": 0, "changes_file": None,
                "wall_s": 0.0})
        manifest = {
            "epoch": epoch, "key": self.key,
            # the binlog cursor passes through maintenance untouched
            "log_epoch": prev.get("log_epoch", prev.get("epoch")),
            "prev_epoch": prev.get("epoch"),
            "num_partitions": prev.get("num_partitions",
                                       self.num_partitions),
            "schema": prev["schema"],
            "commit_ts_us": commit_ts_for(epoch),
            "partitions": partitions,
            "lineage": lineage,
            "compacted_delta_partitions": len(stats),
            "merge_on_read": True,
            "wall_s": round(time.perf_counter() - t0, 4),
        }
        if prev.get("max_id") is not None:
            manifest["max_id"] = prev["max_id"]
        # minor compaction (min_chain > 0) may leave shallow chains
        # pending — carry their delta_commits entries so resolution
        # keeps working, pruned to the commit ids still referenced
        still_ref = {d["commit_id"] for v in partitions.values()
                     for d in v.get("deltas", [])}
        if still_ref:
            dc_prev = prev.get("delta_commits", {})
            manifest["delta_commits"] = {str(c): dc_prev[str(c)]
                                         for c in sorted(still_ref)}
        if not _commit_manifest_exclusive(_manifest_path(self.root, epoch),
                                          manifest):
            return CommitResult(epoch=epoch, skipped=True)
        return CommitResult(
            epoch=epoch, partitions_touched=len(stats),
            # live totals are unknown while any chain is still pending
            total_rows=(-1 if still_ref else
                        sum(int(v["live_rows"])
                            for v in partitions.values())),
            wall_s=time.perf_counter() - t0)

    def purge_tombstones(self, epoch: int | None = None,
                         watermark_ts_us: int = 0) -> CommitResult:
        """Maintenance commit: physically drop tombstoned rows whose
        version ``warc_ts < watermark``.

        A tombstone must outlive any event it could still have to defeat
        (LWW: a late OLD update loses only because the tombstone's newer
        version is present). Purging is therefore only safe under a
        WATERMARK contract: the producer guarantees no future event
        carries ``warc_ts`` ≤ the watermark (bounded out-of-orderness —
        the CDC norm). Runs as a normal exactly-once commit: per-partition
        rewrite tasks → new snapshots → atomic manifest.

        Carries the binlog cursor (``log_epoch``) forward unchanged, so a
        purge BETWEEN tail polls never skips pending log epochs.
        ``epoch=None`` auto-allocates the next chain id.
        """
        import ray.data as rd

        t0 = time.perf_counter()
        last = self.last_committed_epoch()
        if epoch is None:
            if last is None:
                return CommitResult(epoch=-1, skipped=True)
            epoch = last + 1
        elif last is not None and epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(self.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)
        self._sync_partitions()
        prev = load_manifest(self.root)
        if not prev:
            return CommitResult(epoch=epoch, skipped=True)
        if manifest_has_deltas(prev):
            raise ValueError(
                f"lake at {self.root} has pending merge-on-read deltas; "
                "purge_tombstones rewrites base snapshots only — run "
                "compact_deltas() first")
        prev_parts = prev["partitions"]
        root = _as_root(self.root)
        key = self.key
        ver_col = self.version[0]

        def rewrite(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            out = []
            for pid, rel in zip(batch["pid"].to_pylist(),
                                batch["file"].to_pylist()):
                tbl = fs_read_table(_as_root(root) / rel)
                drop = pc.and_(
                    tbl[INTERNAL_DELETED],
                    pc.less(tbl[ver_col],
                            pa.scalar(watermark_ts_us,
                                      type=tbl[ver_col].type)))
                kept = tbl.filter(pc.invert(pc.fill_null(drop, False)))
                # 'm' suffix: a maintenance rewrite must never share a
                # snapshot path with a racing ingest merge at the same
                # chain id (different content, first-writer-wins manifests)
                new_rel = f"{_DATA_DIR}/p={pid:05d}/snap-{epoch:06d}m.parquet"
                fs_publish_table(kept, _as_root(root) / new_rel, key=key)
                h = snapshot_content_hash(kept.to_pandas(), key)
                live = int(pa.compute.sum(
                    pa.compute.invert(kept[INTERNAL_DELETED])).as_py() or 0)
                out.append((pid, new_rel, kept.num_rows, live, h,
                            tbl.num_rows - kept.num_rows))
            return pa.table({
                "pid": [o[0] for o in out], "file": [o[1] for o in out],
                "rows": [o[2] for o in out], "live": [o[3] for o in out],
                "hash": [o[4] for o in out], "purged": [o[5] for o in out],
            })

        pids = pa.table({
            "pid": pa.array([int(p) for p in sorted(prev_parts)], type=pa.int32()),
            "file": pa.array([prev_parts[p]["file"] for p in sorted(prev_parts)]),
        })
        stats = (rd.from_arrow(pids).repartition(max(1, pids.num_rows))
                 .map_batches(rewrite, batch_format="pyarrow").to_pandas())

        partitions = {}
        for r in stats.itertuples(index=False):
            partitions[str(r.pid)] = {"file": r.file, "rows": int(r.rows),
                                      "live_rows": int(r.live), "hash": r.hash}
        manifest = {
            "epoch": epoch, "key": self.key,
            # the binlog cursor passes through maintenance untouched
            "log_epoch": prev.get("log_epoch", prev.get("epoch")),
            "prev_epoch": prev.get("epoch"),
            # inherit the previous manifest's count (like truncate) — a
            # maintenance commit must never re-declare the layout
            "num_partitions": prev.get("num_partitions", self.num_partitions),
            "schema": prev["schema"],
            "commit_ts_us": commit_ts_for(epoch),
            "partitions": partitions,
            "lineage": [],
            "purged_tombstones": int(stats["purged"].sum()),
            "watermark_ts_us": watermark_ts_us,
            "wall_s": round(time.perf_counter() - t0, 4),
        }
        if prev.get("max_id") is not None:
            manifest["max_id"] = prev["max_id"]
        if not _commit_manifest_exclusive(_manifest_path(self.root, epoch),
                                          manifest):
            return CommitResult(epoch=epoch, skipped=True)
        return CommitResult(
            epoch=epoch, partitions_touched=len(stats),
            rows_deleted=int(stats["purged"].sum()),
            total_rows=int(stats["live"].sum()),
            wall_s=time.perf_counter() - t0)

    def delete_where(self, where, *, version_ts_us: int,
                     epoch: int | None = None) -> CommitResult:
        """Administrative logical delete (GDPR / retention): tombstone
        every live row matching ``where`` by committing synthetic
        delete events through the NORMAL merge — LWW versioning, change
        listeners, lineage, and every derived structure's per-commit
        maintenance see a regular ingest-shaped commit, and the
        tombstone's payload columns are the delete event's (null), so
        the data is actually gone from the snapshot, not just hidden.

        ``version_ts_us`` is the version the tombstones carry and is
        REQUIRED: like ``purge_tombstones``' watermark, the caller
        asserts no future binlog event for these keys will carry
        ``warc_ts >= version_ts_us`` unless it should win (resurrect).
        The binlog cursor passes through untouched. Re-running deletes
        0 rows (matching rows are already tombstoned) but still commits
        — same auto-allocation contract as ``purge``/``truncate``;
        an explicit ``epoch`` ≤ the chain head is skipped exactly-once.
        """
        last = self.last_committed_epoch()
        if last is None:
            return CommitResult(epoch=-1, skipped=True)
        if epoch is None:
            epoch = last + 1
        elif epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(self.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)
        prev = load_manifest(self.root)
        target = schema_mod.schema_from_json(prev["schema"])
        key, ver = self.key, self.version[0]
        ver_type = target.field(ver).type

        def mk_deletes(batch: pa.Table, _k=key, _v=ver,
                       _ts=version_ts_us, _vt=ver_type) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "op": pa.array(["delete"] * n, type=pa.string()),
                "seq": pa.array([0] * n, type=pa.int64()),
                _k: batch[_k],
                _v: pa.array([_ts] * n, type=pa.int64()).cast(_vt),
            })

        changes = (self.read(columns=[key], where=where)
                   .map_batches(mk_deletes, batch_format="pyarrow"))
        staged = self.stage(changes, {epoch: target}, prev)
        return self.commit_staged(staged, log_epoch=log_cursor(prev))[0]

    def suggest_num_partitions(self, window: int = 5,
                               max_growth: int = 4) -> int:
        """Advisory partition count from the last ``window`` INGEST
        commits' lineage volumes (metadata only). ``== num_partitions``
        means leave it alone; a larger answer feeds
        ``repartition_table`` (CLI: ``repartition --auto``)."""
        self._sync_partitions()
        vols: dict[int, int] = {}
        n_ingest = 0
        for e in reversed(committed_epochs(self.root)):
            m = load_manifest(self.root, e)
            rows = [ln for ln in (m or {}).get("lineage", [])
                    if int(ln.get("events_in", 0) or 0) > 0]
            if not rows:
                continue  # maintenance commit (purge/backfill/repart)
            for ln in rows:
                pid = int(ln["partition_id"])
                vols[pid] = vols.get(pid, 0) + int(ln["events_in"])
            n_ingest += 1
            if n_ingest >= window:
                break
        return suggest_partitions(vols, self.num_partitions,
                                  factor=self.hot_factor,
                                  min_rows=self.hot_min_rows,
                                  max_growth=max_growth)

    def repartition_table(self, new_num_partitions: int,
                          epoch: int | None = None) -> CommitResult:
        """Maintenance commit: re-bucket the LIVE TABLE to a different
        partition count — the skew/parallelism lever the hot-key stress
        documented (BASELINE.md: spreading one wide partition 4 ways
        halved the merge wall), applicable WITHOUT rebuilding the lake.

        Pay-once shuffle, exactly-once: phase A splits each old
        partition snapshot by the new ``stable_bucket`` routing into
        bucket-row-grouped intermediate files (one Ray task per old
        partition, same layout trick as ingest staging); phase B writes
        one new snapshot per new partition (one task each, row-group
        pruned reads); the atomic manifest then declares the new
        ``num_partitions``. Rows — live AND tombstones, internal
        columns included — are preserved bit-for-bit; only their
        bucket assignment changes. The binlog cursor passes through
        untouched, and subsequent ingests adopt the new count off the
        manifest (an explicitly conflicting count still raises
        ``PartitionMismatchError``).

        The manifest carries lineage rows for every old∪new partition,
        so derived structures (matview / index / clustered layouts)
        fold the commit as (+ all new files, − all old files) — a net
        zero value delta, kept correct at the cost of one full-table
        fold, which is what moving every row honestly costs.
        """
        import ray.data as rd

        t0 = time.perf_counter()
        new_nb = int(new_num_partitions)
        if new_nb < 1:
            raise ValueError("new_num_partitions must be >= 1")
        last = self.last_committed_epoch()
        if last is None:
            return CommitResult(epoch=-1, skipped=True)
        if epoch is None:
            epoch = last + 1
        elif epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(self.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)
        self._sync_partitions()
        old_nb = self.num_partitions
        prev = load_manifest(self.root)
        if manifest_has_deltas(prev):
            raise ValueError(
                f"lake at {self.root} has pending merge-on-read deltas; "
                "repartition_table rewrites base snapshots only — run "
                "compact_deltas() first")
        if new_nb == old_nb:
            return CommitResult(epoch=epoch, skipped=True)
        prev_parts = prev["partitions"]
        root = _as_root(self.root)
        key = self.key
        split_root = self._staging_base / f"repart={epoch:06d}"
        if fs_exists(split_root):
            fs_rmtree(split_root)  # crashed attempt leftovers
        split_base = split_root
        rng = _staging_range_size(new_nb)

        def split(batch: pa.Table) -> pa.Table:
            out_pid, out_n = [], []
            for old_pid in batch["pid"].to_pylist():
                rel = prev_parts[str(int(old_pid))].get("file")
                if not rel:
                    continue
                tbl = fs_read_table(_as_root(root) / rel)
                if tbl.num_rows == 0:
                    continue
                b = stable_bucket(tbl[key], new_nb)
                order = np.argsort(b, kind="stable")
                tbl = tbl.take(pa.array(order))
                bs = b[order]
                tbl = tbl.append_column(BUCKET_COL,
                                        pa.array(bs, type=pa.int32()))
                bounds = np.searchsorted(bs, np.arange(new_nb + 1))
                tid = uuid.uuid4().hex[:12]
                writer, cur_rid = None, -1
                for p in range(new_nb):
                    lo, hi = int(bounds[p]), int(bounds[p + 1])
                    if hi <= lo:
                        continue
                    rid = p // rng
                    if rid != cur_rid:
                        if writer is not None:
                            writer.close()
                        d = _as_root(split_base) / f"r={rid:05d}"
                        writer = fs_parquet_writer(
                            d / f"{tid}.parquet", tbl.schema,
                            compression="none")
                        cur_rid = rid
                    writer.write_table(tbl.slice(lo, hi - lo),
                                       row_group_size=max(1, hi - lo))
                    out_pid.append(p)
                    out_n.append(hi - lo)
                if writer is not None:
                    writer.close()
            return pa.table({"pid": pa.array(out_pid, type=pa.int32()),
                             "n": pa.array(out_n, type=pa.int64())})

        old_pids = sorted(prev_parts, key=int)
        marks = (rd.from_arrow(pa.table({
                    "pid": pa.array([int(p) for p in old_pids],
                                    type=pa.int32())}))
                 .repartition(max(1, len(old_pids)))
                 .map_batches(split, batch_format="pyarrow")
                 .to_pandas())
        touched_new = sorted(int(p) for p in marks["pid"].unique()) \
            if len(marks) else []

        def assemble(batch: pa.Table) -> pa.Table:
            out = []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                d = _as_root(split_base) / f"r={pid // rng:05d}"
                files = fs_glob(d, "*.parquet")
                parts = [fs_read_table(f,
                                       filters=[(BUCKET_COL, "=", pid)])
                         for f in files]
                tbl = pa.concat_tables([p for p in parts if p.num_rows])
                tbl = tbl.drop_columns([BUCKET_COL])
                # canonical order: keys are unique per partition
                tbl = tbl.take(pa.compute.sort_indices(tbl[key]))
                new_rel = (f"{_DATA_DIR}/p={pid:05d}/"
                           f"snap-{epoch:06d}r.parquet")
                fs_publish_table(tbl, _as_root(root) / new_rel, key=key)
                h = snapshot_content_hash(tbl.to_pandas(), key)
                live = int(pa.compute.sum(pa.compute.invert(
                    tbl[INTERNAL_DELETED])).as_py() or 0)
                out.append((pid, new_rel, tbl.num_rows, live, h))
            return pa.table({
                "pid": [o[0] for o in out], "file": [o[1] for o in out],
                "rows": [o[2] for o in out], "live": [o[3] for o in out],
                "hash": [o[4] for o in out]})

        if touched_new:
            stats = (rd.from_arrow(pa.table({
                        "pid": pa.array(touched_new, type=pa.int32())}))
                     .repartition(len(touched_new))
                     .map_batches(assemble, batch_format="pyarrow")
                     .to_pandas())
        else:
            stats = pd.DataFrame(
                columns=["pid", "file", "rows", "live", "hash"])
        fs_rmtree(split_root)
        fs_rmdir_if_empty(self._staging_base)

        partitions = {}
        for r in stats.itertuples(index=False):
            partitions[str(r.pid)] = {"file": r.file, "rows": int(r.rows),
                                      "live_rows": int(r.live),
                                      "hash": r.hash}
        lineage = [{"partition_id": p, "epoch": epoch, "events_in": 0,
                    "rows": 0, "live_rows": 0, "deleted_rows": 0,
                    "change_events": 0, "changes_file": None,
                    "repartition": f"{old_nb}->{new_nb}", "wall_s": 0.0}
                   for p in sorted({int(q) for q in old_pids}
                                   | set(touched_new))]
        manifest = {
            "epoch": epoch, "key": self.key,
            "log_epoch": prev.get("log_epoch", prev.get("epoch")),
            "prev_epoch": prev.get("epoch"),
            "num_partitions": new_nb,
            "schema": prev["schema"],
            "commit_ts_us": commit_ts_for(epoch),
            "partitions": partitions,
            "lineage": lineage,
            "repartitioned_from": old_nb,
            "wall_s": round(time.perf_counter() - t0, 4),
        }
        if prev.get("max_id") is not None:
            manifest["max_id"] = prev["max_id"]
        if not _commit_manifest_exclusive(_manifest_path(self.root, epoch),
                                          manifest):
            return CommitResult(epoch=epoch, skipped=True)
        self.num_partitions = new_nb
        self._requested_partitions = new_nb
        return CommitResult(
            epoch=epoch, partitions_touched=len(stats),
            total_rows=int(stats["live"].sum()) if len(stats) else 0,
            wall_s=time.perf_counter() - t0)

    def fsck(self, as_of_epoch: int | None = None) -> dict:
        """Integrity check: re-derive every live file's content hash
        and row counts and compare against what the manifest recorded —
        one Ray task per partition, driver sees only verdicts. Catches
        bit rot, truncated writes and manual tampering before they
        become silent wrong answers.

        Merge-on-read partitions are FULLY checked too: the carried
        base snapshot verifies against its original (hash, rows, live)
        and every pending delta file against the (hash, rows) its
        writing commit recorded in the delta entry (``_write_delta``
        hashes the change-set content). ``skipped_mor`` only lists
        delta files written before hashes were recorded in delta
        entries (older manifests)."""
        import ray.data as rd

        m = load_manifest(self.root, as_of_epoch)
        empty = {"ok": True, "partitions_checked": 0,
                 "files_checked": 0, "mismatches": [],
                 "missing_files": [], "skipped_mor": []}
        if not m:
            return empty
        key = self.key
        root = _as_root(self.root)
        parts = m["partitions"]
        # per pid: list of (rel_file, want_hash, want_rows, want_live);
        # want_live None => delta file (no live count recorded)
        meta: dict[int, list[tuple[str, str, int, int | None]]] = {}
        missing, skipped = [], []
        for p, v in parts.items():
            pid = int(p)
            ent = []
            if v.get("file"):
                ent.append((v["file"], v["hash"], int(v["rows"]),
                            int(v["live_rows"])))
            for d in v.get("deltas", []):
                if d.get("hash") is None:  # pre-hash manifest vintage
                    skipped.append(d["file"])
                    continue
                ent.append((d["file"], d["hash"], int(d["rows"]), None))
            present = []
            for e in ent:
                if (self.root / e[0]).exists():
                    present.append(e)
                else:
                    missing.append(pid)
            if present:
                meta[pid] = present
        missing = sorted(set(missing))
        todo = sorted(meta)
        if not todo:
            return {**empty, "ok": not missing,
                    "missing_files": missing, "skipped_mor": skipped}

        def verify(batch: pa.Table) -> pa.Table:
            pids, files, oks, reasons = [], [], [], []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                for rel, want_h, want_rows, want_live in meta[pid]:
                    tbl = fs_read_table(_as_root(root) / rel)
                    got_h = snapshot_content_hash(tbl.to_pandas(), key)
                    bad = []
                    if tbl.num_rows != want_rows:
                        bad.append(f"rows {tbl.num_rows}!={want_rows}")
                    if want_live is not None:
                        got_live = int(pa.compute.sum(pa.compute.invert(
                            tbl[INTERNAL_DELETED])).as_py() or 0)
                        if got_live != want_live:
                            bad.append(f"live {got_live}!={want_live}")
                    if got_h != want_h:
                        bad.append(f"hash {got_h}!={want_h}")
                    pids.append(pid)
                    files.append(rel)
                    oks.append(not bad)
                    reasons.append("; ".join(bad))
            return pa.table({"pid": pa.array(pids, type=pa.int32()),
                             "file": pa.array(files, type=pa.string()),
                             "ok": pa.array(oks, type=pa.bool_()),
                             "reason": pa.array(reasons,
                                                type=pa.string())})

        stats = (rd.from_arrow(pa.table({
                    "pid": pa.array(todo, type=pa.int32())}))
                 .repartition(len(todo))
                 .map_batches(verify, batch_format="pyarrow")
                 .to_pandas())
        mismatches = [{"partition_id": int(r.pid), "file": r.file,
                       "reason": r.reason}
                      for r in stats.itertuples(index=False) if not r.ok]
        return {"ok": not mismatches and not missing,
                "partitions_checked": len(todo),
                "files_checked": len(stats),
                "mismatches": mismatches,
                "missing_files": missing,
                "skipped_mor": skipped}

    def branch(self, dest: str | Path,
               as_of_epoch: int | None = None) -> "LakeTable":
        """Zero-copy fork: a fully independent lake at ``dest`` whose
        state is this table at ``as_of_epoch`` (default: head) —
        O(metadata), no data bytes copied. Every referenced snapshot /
        delta file is HARDLINKED (safe because the engine never mutates
        a data file in place: all writes are new-name tmp→rename, and
        an exactly-once re-write of the same (pid, epoch) replaces the
        link, not the shared inode); cross-device destinations fall
        back to a real copy.

        The branch carries exactly ONE manifest — the fork point — so
        time travel below it is gone and its ``prev_epoch`` points at
        a manifest the branch doesn't have: derived consumers
        (matview / index / layout / derived-table first builds) see
        amputated history and correctly route to their full-build path
        (``_chain_start_self_contained``). The binlog cursor forks
        with it, so replaying a different log suffix diverges the
        branch while the source is untouched; GC on either side only
        unlinks its own links. The change-events feed does not fork
        (subscribe on the branch going forward)."""
        m = load_manifest(self.root, as_of_epoch)
        if not m:
            raise ValueError(f"no committed manifest at {self.root}"
                             + (f" epoch {as_of_epoch}"
                                if as_of_epoch is not None else ""))
        dest = resolve_root(dest)
        if committed_epochs(dest):
            raise ValueError(f"{dest} already holds a lake")
        fs_mkdirs(dest)
        rels: list[str] = []
        for v in m["partitions"].values():
            if v.get("file"):
                rels.append(v["file"])
            rels.extend(d["file"] for d in v.get("deltas", []))
        linked = 0
        for rel in rels:
            src, dst = self.root / rel, dest / rel
            if fs_exists(dst):
                continue
            # POSIX: hardlink (zero bytes; safe — data files are never
            # mutated in place). Object store: server-side object copy
            # (no bytes through the client; storage is duplicated —
            # manifest-level file sharing across roots is the future
            # optimization and needs cross-root refs in manifests).
            fs_copy_file(src, dst)
            linked += 1
        _atomic_write_json(_manifest_path(dest, int(m["epoch"])), m)
        return LakeTable(
            dest, key=self.key, version=self.version,
            overwrite=self.overwrite, protected=self.protected,
            managed_timestamps=self.managed_timestamps,
            collect_changes=self.collect_changes,
            insert_missing=self.insert_missing,
            id_field=self.id_field, merge_on_read=self.merge_on_read)

    def compact(self, keep_epochs: int = 1) -> dict:
        """Garbage-collect snapshot files no manifest in the retained
        window references. Copy-on-write leaves one snapshot per
        (partition, touched epoch); retention keeps the last
        ``keep_epochs`` manifests readable (time travel window) and
        deletes everything older manifests exclusively referenced.

        Runs driver-side over metadata only — file deletion is O(files),
        no data is read or moved.
        """
        eps = committed_epochs(self.root)
        keep = eps[-keep_epochs:] if keep_epochs else eps
        referenced: set[str] = set()
        for e in keep:
            m = load_manifest(self.root, e)
            for v in m["partitions"].values():
                if v.get("file"):
                    referenced.add(v["file"])
                referenced.update(d["file"] for d in v.get("deltas", []))
        removed_files = 0
        data_dir = self.root / _DATA_DIR
        if fs_is_dir(data_dir):
            for pattern in ("snap-*.parquet", "delta-*.parquet"):
                for f, rel_in_data in fs_rglob(data_dir, pattern):
                    rel = f"{_DATA_DIR}/{rel_in_data}"
                    if rel not in referenced:
                        fs_unlink(f)
                        removed_files += 1
        removed_manifests = 0
        for e in eps:
            if e not in keep:
                fs_unlink(_manifest_path(self.root, e), missing_ok=False)
                removed_manifests += 1
        # stale staging attempts (crashed runners) — compact is the
        # maintenance window where no runner is assumed live
        stale = self.staging_root / _STAGING_DIR
        if fs_is_dir(stale):
            fs_rmtree(stale)
        return {"removed_files": removed_files,
                "removed_manifests": removed_manifests,
                "kept_epochs": keep}
