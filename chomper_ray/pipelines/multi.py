"""Multi-table CDC routing: one binlog stream → several exactly-once lakes.

A database WAL (or one CDC bus subscription) interleaves every table's
change events in a single ordered stream. The reference runs one
importer per queue (``/root/reference/chomper/importers.py``) and would
read the stream once PER TABLE; at 10^10 events the stream must be read
ONCE and fanned out. ``run_cdc_multi`` does that:

- **One staging pass per epoch**: a single ``map_batches`` over the
  epoch's segment files splits each Arrow batch by the ``tbl``
  discriminator (vectorized filter), projects each table's catalog
  columns, applies its optional per-table transform, and feeds that
  table's OWN staging writer (the same partial-LWW combiner + bucket
  files ingest uses). The stream's bytes are read from storage exactly
  once per epoch, no matter how many tables ride it.
- **Independent exactly-once per table**: each table is a normal
  ``LakeTable`` under ``root/<name>`` with its own key, partition
  count, schema registry and binlog cursor. Commits land sequentially
  per epoch; a crash between table A's and table B's commits is healed
  on rerun — A's commit skips off its cursor, B re-stages and commits
  (staging is wiped per attempt, duplicate staging is harmless by the
  merge's (key, version) dedup).
- **Epoch alignment**: a table with NO events in an epoch still
  commits (empty, cursor advance) so every table's cursor moves in
  lockstep with the log — resume logic stays trivial.

Schema evolution, LWW semantics, manifests, lineage: all inherited from
the single-table path; this module only adds routing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc

from chomper_ray.pipelines.cdc import CdcRunResult
from chomper_ray.sources import events as ev
from chomper_ray.state.lake import LakeTable, load_manifest, plan_targets

_MARKER_SCHEMA = pa.schema([
    ("epoch", pa.int64()), ("pid", pa.int32()), ("n", pa.int64()),
    ("tbl", pa.string()), ("raw", pa.int64()),
])


@dataclass
class TableSpec:
    """Routing spec for one table riding the stream. ``columns`` are the
    payload columns (key + version included); ``transform`` (optional)
    maps the table's normalized sub-batch (op/epoch/seq + columns) —
    must keep op/epoch/seq and the key/version columns intact."""

    key: str
    columns: list[str]
    transform: object | None = None
    num_partitions: int | None = None
    lake_kwargs: dict = field(default_factory=dict)


def table_catalog(log_dir: str | Path) -> dict[str, TableSpec]:
    """Specs from the log's ``_tables.json`` catalog sidecar."""
    cat = json.loads((Path(log_dir) / "_tables.json").read_text())
    return {name: TableSpec(key=v["key"], columns=list(v["columns"]))
            for name, v in cat.items()}


def run_cdc_multi(
    log_dir: str | Path,
    root: str | Path,
    tables: dict[str, TableSpec] | None = None,
    *,
    num_partitions: int | None = None,
    max_epochs: int | None = None,
    source=None,
) -> dict[str, CdcRunResult]:
    """Tail a multi-table change log into one lake per table under
    ``root/<name>``, reading the stream once per epoch. Idempotent and
    resumable per table (each lake keeps its own binlog cursor).

    ``source`` is the same log-format adapter protocol ``run_cdc``
    takes (default: the Parquet binlog; ``sources.envelopes`` reads a
    multi-table Debezium stream whose ``source.table`` becomes the
    ``tbl`` discriminator)."""
    t0 = time.perf_counter()
    source = source if source is not None else ev
    if tables is None:
        tables = table_catalog(log_dir)

    lakes: dict[str, LakeTable] = {}
    for name, spec in tables.items():
        np_ = spec.num_partitions or num_partitions
        lakes[name] = LakeTable(Path(root) / name, key=spec.key,
                                num_partitions=np_, **spec.lake_kwargs)

    results = {name: CdcRunResult() for name in tables}
    cursors = {name: lakes[name].last_applied_log_epoch()
               for name in tables}
    check = getattr(source, "check_resume", None)
    if check is not None:  # pruned-bus guard, per table cursor
        for c in cursors.values():
            check(log_dir, c)
    all_epochs = source.list_epochs(log_dir)
    pending = [e for e in all_epochs
               if any(c is None or e > c for c in cursors.values())]
    if max_epochs is not None:
        pending = pending[:max_epochs]

    for epoch in pending:
        seg_schema = source.epoch_schema(log_dir, epoch)
        # tables whose cursor hasn't passed this epoch yet
        active = [n for n in tables
                  if cursors[n] is None or epoch > cursors[n]]
        plans: dict[str, tuple] = {}
        for name in active:
            spec, lake = tables[name], lakes[name]
            sub = pa.schema(
                [seg_schema.field("op"), seg_schema.field("epoch"),
                 seg_schema.field("seq")]
                + [seg_schema.field(c) for c in spec.columns])
            probe = sub.empty_table()
            if spec.transform is not None:
                probe = spec.transform(probe)
            head = load_manifest(lake.root)
            targets = plan_targets(head, {epoch: probe.schema})
            stager = lake._stage_writer(targets, head)
            plans[name] = (spec.columns, spec.transform, stager, targets,
                           head)

        plan_items = sorted(plans.items())

        def stage_all(batch: pa.Table, _plans=plan_items,
                      epoch=epoch) -> pa.Table:
            outs = []
            for name, (cols, transform, stager, _t, _h) in _plans:
                sub = batch.filter(pc.equal(batch["tbl"], name))
                if sub.num_rows == 0:
                    continue
                sub = sub.select(["op", "epoch", "seq", *cols])
                if transform is not None:
                    sub = transform(sub)
                m = stager(sub)
                m = m.append_column(
                    "tbl", pa.array([name] * m.num_rows,
                                    type=pa.string()))
                m = m.append_column(
                    "raw", pa.array([0] * m.num_rows, type=pa.int64()))
                outs.append(m.select(_MARKER_SCHEMA.names))
                # one summary row per (table, batch): the RAW event
                # count (pre-combiner), for per-table metrics
                outs.append(pa.table({
                    "epoch": pa.array([epoch], type=pa.int64()),
                    "pid": pa.array([-1], type=pa.int32()),
                    "n": pa.array([0], type=pa.int64()),
                    "tbl": pa.array([name], type=pa.string()),
                    "raw": pa.array([sub.num_rows], type=pa.int64()),
                }))
            if not outs:
                return _MARKER_SCHEMA.empty_table()
            return pa.concat_tables(outs)

        t_stage = time.perf_counter()
        staged = (source.read_epoch(log_dir, epoch)
                  .map_batches(stage_all, batch_format="pyarrow")
                  .to_pandas())  # marker rows only — metadata
        stage_s = time.perf_counter() - t_stage

        for name in active:
            _, _, _, targets, head = plans[name]
            mine = staged[staged["tbl"] == name] if len(staged) else staged
            raw = int(mine["raw"].sum()) if len(mine) else 0
            commit = lakes[name].commit_staged(lakes[name].staged_epochs(
                head, targets, mine[mine["pid"] >= 0] if len(mine) else mine,
                stage_s))[0]
            res = results[name]
            res.commits.append(commit)
            if commit.skipped:
                res.epochs_skipped.append(epoch)
            else:
                res.epochs_run.append(epoch)
                res.events_applied += raw
            cursors[name] = lakes[name].last_applied_log_epoch()

    wall = time.perf_counter() - t0
    for res in results.values():
        res.wall_s = wall
    return results


__all__ = ["TableSpec", "run_cdc_multi", "table_catalog"]
