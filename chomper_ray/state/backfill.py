"""Versioned backfill: partition-incremental reprocessing of lake rows.

The reference re-runs its whole pipeline to change a transform
(``/root/reference/chomper/importers.py`` has no notion of history —
every run recomputes everything it reads). A 100-TB CDC lake cannot:
when a transform version changes (a better extractor, a new derived
column), history must be reprocessed IN PLACE, a bounded number of
partitions per commit, resumable after any crash, without stopping
ingest. That is what ``LakeBackfill`` does:

- **Chunked**: each ``run_chunk`` rewrites at most ``max_partitions``
  partition snapshots through the user transform and lands ONE
  exactly-once maintenance manifest (same atomic-commit machinery as
  ``purge_tombstones``); the binlog cursor passes through untouched, so
  ingest polls interleave freely with backfill chunks.
- **Resumable by manifest, not by side file**: every chunk manifest
  carries a ``backfill`` block naming the snapshot files it produced.
  ``pending()`` is metadata-only — a partition is done iff its CURRENT
  head file was produced by this backfill id. A CDC commit that later
  rewrites a backfilled partition makes it pending again by
  construction (its head file changes), so ``run()`` after more ingest
  converges the new rows too — provided the transform is idempotent
  (f∘f = f), which is the standard backfill contract and is what a
  null-guarded enrichment gives you for free.
- **Validated**: the transform must preserve row count, the key column
  and the version column, and may only add or rewrite columns (never
  drop) — violations raise ``BackfillError`` inside the rewrite task
  rather than committing silent corruption.

Scale shape: ``pending()`` walks manifests (metadata, O(commits));
each chunk is one Ray task per touched partition reading exactly one
snapshot file; nothing driver-side ever holds row data. Schema growth
(a transform adding a column) flows through the same registry
``reconcile`` as ingest evolution, so untouched partitions conform
(null-fill) at read until their chunk lands.
"""

from __future__ import annotations

import os
import time
import uuid
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.state import schema as schema_mod
from chomper_ray.state.fs import fs_publish_table, fs_read_table
from chomper_ray.state.lake import (
    _DATA_DIR,
    CommitResult,
    LakeTable,
    _commit_manifest_exclusive,
    _conform_snapshot,
    _manifest_path,
    commit_ts_for,
    committed_epochs,
    load_manifest,
    manifest_has_deltas,
    snapshot_content_hash,
)
from chomper_ray.stages.merge import INTERNAL_DELETED


class BackfillError(ValueError):
    """The transform violated the backfill contract (row count, key,
    version, or column-drop)."""


class LakeBackfill:
    """Reprocess a lake's rows through ``transform``, a bounded number
    of partitions per exactly-once commit.

    ``transform``: callable ``pa.Table -> pa.Table`` over ONE
    partition's payload rows (the columns ``read()`` shows — internal
    bookkeeping columns are reattached by the engine). It sees live and
    tombstoned rows alike (tombstones keep their last payload; a
    null-safe transform handles both for free) and must be
    deterministic and idempotent.
    """

    def __init__(self, lake: LakeTable, backfill_id: str, transform):
        if not backfill_id:
            raise ValueError("backfill_id must be a non-empty string")
        self.lake = lake
        self.backfill_id = backfill_id
        self.transform = transform

    # ---- metadata-only state ------------------------------------------

    def _head(self) -> dict | None:
        return load_manifest(self.lake.root)

    def _done_files(self) -> set[str]:
        """Snapshot files produced by THIS backfill id, across the whole
        manifest chain. (After aggressive GC — ``compact(keep_epochs=1)``
        dropping chunk manifests — entries vanish and their partitions
        read as pending again; idempotency makes the re-run harmless.)"""
        out: set[str] = set()
        for e in committed_epochs(self.lake.root):
            m = load_manifest(self.lake.root, e)
            bf = (m or {}).get("backfill")
            if bf and bf.get("id") == self.backfill_id:
                out.update(bf.get("out_files", {}).values())
        return out

    def pending(self) -> list[int]:
        """Partitions whose current head snapshot this backfill has not
        produced — metadata only, no data read."""
        head = self._head()
        if not head:
            return []
        if manifest_has_deltas(head):
            raise ValueError(
                f"lake at {self.lake.root} has pending merge-on-read "
                "deltas; backfill rewrites base snapshots only — run "
                "compact_deltas() first")
        done = self._done_files()
        return sorted(int(p) for p, v in head["partitions"].items()
                      if v.get("file") and v["file"] not in done)

    # ---- schema resolution --------------------------------------------

    def _resolve(self, head: dict) -> tuple[pa.Schema, pa.Schema]:
        """(current payload schema, post-transform target schema); the
        empty-table probe resolves the new schema without reading data,
        exactly like ingest's schema hint."""
        cur = schema_mod.schema_from_json(head["schema"])
        probe = self.transform(cur.empty_table())
        missing = [c for c in cur.names if c not in probe.column_names]
        if missing:
            raise BackfillError(
                f"backfill transform dropped column(s) {missing}; "
                "backfill may add or rewrite columns, never drop")
        for col in (self.lake.key, self.lake.version[0]):
            if col not in probe.column_names:
                raise BackfillError(
                    f"backfill transform must preserve {col!r}")
        target = schema_mod.reconcile(cur, probe.schema)
        return cur, target

    # ---- the chunk commit ----------------------------------------------

    def run_chunk(self, max_partitions: int | None = None,
                  epoch: int | None = None) -> CommitResult:
        """Rewrite up to ``max_partitions`` pending partitions and land
        one maintenance manifest. No-op (``skipped``) when nothing is
        pending."""
        import ray.data as rd

        t0 = time.perf_counter()
        lake = self.lake
        head = self._head()
        if not head:
            return CommitResult(epoch=-1, skipped=True)
        todo = self.pending()
        if max_partitions is not None:
            todo = todo[:max_partitions]
        if not todo:
            return CommitResult(epoch=-1, skipped=True)

        last = lake.last_committed_epoch()
        if epoch is None:
            epoch = last + 1
        elif last is not None and epoch <= last:
            return CommitResult(epoch=epoch, skipped=True)
        if _manifest_path(lake.root, epoch).exists():
            return CommitResult(epoch=epoch, skipped=True)

        cur, target = self._resolve(head)
        root = lake.root
        key, ver = lake.key, lake.version[0]
        managed, id_field = lake.managed_timestamps, lake.id_field
        transform = self.transform
        cur_json = schema_mod.schema_to_json(cur)
        target_json = schema_mod.schema_to_json(target)
        prev_parts = head["partitions"]

        def rewrite(batch: pa.Table) -> pa.Table:
            cur_s = schema_mod.schema_from_json(cur_json)
            tgt_s = schema_mod.schema_from_json(target_json)
            out = []
            for pid in batch["pid"].to_pylist():
                pid = int(pid)
                rel = prev_parts[str(pid)]["file"]
                tbl = fs_read_table(root / rel)
                # present the rows exactly as read() would (conform to
                # the manifest schema first: old snapshots may predate
                # the latest ingest evolution)
                phys_cur = _conform_snapshot(tbl, cur_s, managed, id_field)
                t_in = phys_cur.select(cur_s.names)
                t_out = transform(t_in)
                if t_out.num_rows != t_in.num_rows:
                    raise BackfillError(
                        f"transform changed row count in p={pid} "
                        f"({t_in.num_rows} -> {t_out.num_rows})")
                for col in (key, ver):
                    if not t_out[col].equals(t_in[col]) and \
                            t_out[col].to_pylist() != t_in[col].to_pylist():
                        raise BackfillError(
                            f"transform modified {col!r} in p={pid}")
                # payload through the transform; bookkeeping columns
                # (seq/tombstone/managed ts/surrogate id) carried over
                keep = [c for c in phys_cur.column_names
                        if c not in t_out.column_names]
                merged = t_out
                for c in keep:
                    merged = merged.append_column(c, phys_cur[c])
                merged = _conform_snapshot(merged, tgt_s, managed,
                                           id_field)
                new_rel = f"{_DATA_DIR}/p={pid:05d}/snap-{epoch:06d}b.parquet"
                fs_publish_table(merged, root / new_rel, key=key)
                h = snapshot_content_hash(merged.to_pandas(), key)
                live = int(pa.compute.sum(pa.compute.invert(
                    merged[INTERNAL_DELETED])).as_py() or 0)
                out.append((pid, new_rel, merged.num_rows, live, h))
            return pa.table({
                "pid": [o[0] for o in out], "file": [o[1] for o in out],
                "rows": [o[2] for o in out], "live": [o[3] for o in out],
                "hash": [o[4] for o in out]})

        stats = (rd.from_arrow(pa.table({
                    "pid": pa.array(todo, type=pa.int32())}))
                 .repartition(len(todo))
                 .map_batches(rewrite, batch_format="pyarrow")
                 .to_pandas())  # ≤ chunk-size rows, metadata only

        partitions = dict(prev_parts)
        out_files: dict[str, str] = {}
        lineage = []
        for r in stats.itertuples(index=False):
            partitions[str(r.pid)] = {"file": r.file, "rows": int(r.rows),
                                      "live_rows": int(r.live),
                                      "hash": r.hash}
            out_files[str(r.pid)] = r.file
            # REAL lineage rows, not [] like purge: a backfill changes
            # LIVE row values, so derived structures (matview / index /
            # clustered layouts) must see these partitions as touched —
            # their per-commit old-vs-new file diff then folds the value
            # changes exactly (purge's zero-delta shortcut would leave
            # them silently stale here)
            lineage.append({
                "partition_id": int(r.pid), "epoch": epoch,
                "events_in": 0, "rows": int(r.rows),
                "live_rows": int(r.live), "deleted_rows": 0,
                "change_events": 0, "changes_file": None,
                "backfill": self.backfill_id, "wall_s": 0.0,
            })
        manifest = {
            "epoch": epoch, "key": lake.key,
            # maintenance: the binlog cursor passes through untouched
            "log_epoch": head.get("log_epoch", head.get("epoch")),
            "prev_epoch": head.get("epoch"),
            "num_partitions": head.get("num_partitions",
                                       lake.num_partitions),
            "schema": target_json,
            "commit_ts_us": commit_ts_for(epoch),
            "partitions": partitions,
            "lineage": lineage,
            "backfill": {"id": self.backfill_id, "out_files": out_files,
                         "pids": [int(p) for p in todo]},
            "wall_s": round(time.perf_counter() - t0, 4),
        }
        if head.get("max_id") is not None:
            manifest["max_id"] = head["max_id"]
        if not _commit_manifest_exclusive(_manifest_path(lake.root, epoch),
                                          manifest):
            return CommitResult(epoch=epoch, skipped=True)
        return CommitResult(
            epoch=epoch, partitions_touched=len(stats),
            rows_upserted=int(stats["rows"].sum()),
            total_rows=int(stats["live"].sum()),
            wall_s=time.perf_counter() - t0)

    def run(self, max_partitions_per_commit: int | None = None
            ) -> list[CommitResult]:
        """Chunk until nothing is pending. With ``None`` chunk size the
        whole backlog lands in one commit; a bounded chunk size is the
        100-TB shape (each commit's work and its manifest diff stay
        O(chunk))."""
        out: list[CommitResult] = []
        while True:
            res = self.run_chunk(max_partitions_per_commit)
            if res.skipped:
                break
            out.append(res)
        return out


__all__ = ["BackfillError", "LakeBackfill"]
