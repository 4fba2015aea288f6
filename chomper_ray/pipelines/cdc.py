"""The flagship pipeline: binlog tail → transform → LWW upsert into the lake.

Reference ancestry: ``Importer.run()`` with ``close_when_idle=False``
(``/root/reference/chomper/importers.py:54-62``) + Redis ``QueueReader``
(``contrib/redis.py:39-46``) + ``Upserter`` (``contrib/sql/exporters.py:
234-252``) — an at-least-once, arrival-order, un-checkpointed tail loop.

Here each **epoch** of the change log is one committed unit:

    read epoch segments → map_batches transform chain (HTML→text
    extraction as stateless tasks, drop html early) → LakeTable.stage
    (partial LWW reduce → per-bucket staging files) →
    LakeTable.commit_staged (per-partition copy-on-write merge → atomic
    manifest)

A backlog drain stages and merges many epochs in one pass each; the
commit path is the same. Resume = the binlog cursor recorded in the head
manifest, + 1; replaying any committed epoch is a no-op, so
crash-at-any-point → rerun converges to the identical snapshot hash
(tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa

from chomper_ray.functions.extract import extract_text_column
from chomper_ray.sources import events as ev
from chomper_ray.state.lake import (CommitResult, LakeTable, load_manifest,
                                    log_cursor, plan_targets)


class ExtractText:
    """HTML→text extraction stage (actor-pool callable).

    Stateful-stage shape per the engine rules: construction happens once
    per actor (the compiled regexes live at module import, so ``__init__``
    is trivially cheap here, but model-loading extractors slot in the same
    way); ``__call__`` handles one Arrow batch. Drops ``html`` right after
    extraction — the widest column leaves the pipeline at the earliest
    legal stage (SURVEY §7.6 wide-binary-rows note).
    """

    def __init__(self, html_col: str = "html", text_col: str = "text",
                 drop_html: bool = True):
        self.html_col = html_col
        self.text_col = text_col
        self.drop_html = drop_html

    def __call__(self, batch: pa.Table) -> pa.Table:
        from chomper_ray.functions.extract import binary_views

        if self.html_col not in batch.column_names:
            # pre-extracted feed (e.g. an outbound-exported envelope
            # log carries text, never raw html) — nothing to extract
            return batch
        # zero-copy views into the Arrow buffer instead of a to_pylist
        # copy of the whole html column (the kernel accepts bytes-like)
        texts = pa.array(
            extract_text_column(binary_views(batch[self.html_col])),
            type=pa.string(),
        )
        if self.text_col in batch.column_names:
            batch = batch.set_column(
                batch.schema.get_field_index(self.text_col), self.text_col, texts)
        else:
            batch = batch.append_column(self.text_col, texts)
        if self.drop_html:
            batch = batch.drop_columns([self.html_col])
        return batch


@dataclass
class CdcRunResult:
    epochs_run: list[int] = field(default_factory=list)
    epochs_skipped: list[int] = field(default_factory=list)
    events_applied: int = 0
    wall_s: float = 0.0
    commits: list[CommitResult] = field(default_factory=list)


def _epoch_rows(source, files: list[str]) -> int:
    """Raw event count for an epoch's segment files — a ``source`` module
    may expose ``epoch_rows`` (e.g. JSONL line counting); the default is
    Parquet footer metadata (no data read)."""
    import pyarrow.parquet as pq

    fn = getattr(source, "epoch_rows", None)
    if fn is not None:
        return int(fn(files))
    return sum(pq.read_metadata(f).num_rows for f in files)


def run_cdc(
    log_dir: str | Path,
    lake_root: str | Path,
    *,
    num_partitions: int | None = None,
    max_epochs: int | None = None,
    lake_kwargs: dict | None = None,
    drain: bool = False,
    source=None,
    after_commit=None,
    epoch_transform=None,
) -> CdcRunResult:
    """Tail the change log from the lake's checkpoint cursor to the log
    head. Idempotent + resumable.

    Pending epochs commit in batches, each one staging pass plus one
    ``LakeTable.commit_staged`` (merge, then the manifests in epoch
    order). By default every epoch is its own batch. ``drain`` makes the
    whole backlog one batch: one staging Dataset over every pending
    segment file and one merge execution, with no per-epoch barrier.
    Target schemas are resolved by chaining the registry over the
    segment schemas up front, which is exactly what epoch-by-epoch
    commits would resolve (reconcile is order-insensitive —
    property-tested). Staging is wiped on entry, so a crash mid-batch
    re-enters cleanly from the committed cursor.

    Extraction runs as STATELESS tasks — its state (compiled regexes)
    is module-level, so an actor pool would only add actor startup
    latency.

    ``source`` is the log-format adapter: any module-like object with
    ``list_epochs / epoch_files / epoch_schema / read_epoch`` (and
    optionally ``epoch_rows``). Default is the Parquet binlog
    (``sources.events``); ``sources.envelopes`` reads Debezium-style
    JSONL envelopes through the identical commit path.

    ``after_commit(commit_result)`` runs driver-side after each
    non-skipped commit's manifest has landed (under ``drain``, after
    the batch's last manifest) — the wiring point for derived
    maintenance (``MaterializedAgg.refresh`` /
    ``LakeTextIndex.refresh`` / layout refresh), which then follows the
    feed commit-by-commit, merge-on-read included. The callback must be
    idempotent-from-anywhere (every ``refresh()`` is: it walks the
    manifest chain from its own applied marker), because a crash
    between the commit and the hook re-enters with the commit already
    durable and skipped — the NEXT epoch's hook call catches up.
    Exceptions propagate (the commit itself stays committed).

    ``epoch_transform(epoch)`` (optional) is called at the START of
    each epoch and may return a batch callable (pyarrow batches) to
    map over the epoch's post-extraction Dataset, or None for
    passthrough — the hook for per-epoch gates whose state advances
    with the commits (e.g. the near-dup admission filter,
    ``state/dupindex.run_cdc_admitted``). Setting it makes every epoch
    its own batch even under ``drain`` — such a gate must observe each
    commit before judging the next epoch.
    """
    import ray.data as rd

    t0 = time.perf_counter()
    source = source if source is not None else ev
    lake = LakeTable(lake_root, num_partitions=num_partitions,
                     **(lake_kwargs or {}))
    # the BINLOG cursor, not the manifest-chain head: maintenance commits
    # (purge/compact between polls) advance the chain but not the cursor
    head = load_manifest(lake.root)
    last = log_cursor(head)
    check = getattr(source, "check_resume", None)
    if check is not None:  # pruned-bus guard: never skip a gap silently
        check(log_dir, last)
    pending = [e for e in source.list_epochs(log_dir)
               if last is None or e > last]
    if max_epochs is not None:
        pending = pending[:max_epochs]

    res = CdcRunResult()
    extract = ExtractText()
    if drain and epoch_transform is None:
        batches = [pending] if pending else []
    else:
        batches = [[e] for e in pending]
    for i, batch in enumerate(batches):
        if i:
            head = load_manifest(lake.root)
        # only a one-epoch batch carries a transform (see above)
        tf = epoch_transform(batch[0]) if epoch_transform is not None \
            else None
        # resolve each post-transform schema WITHOUT executing the
        # pipeline: apply the transform chain to an empty batch of the
        # segment schema
        hints = {}
        for e in batch:
            hint = extract(source.epoch_schema(log_dir, e).empty_table())
            hints[e] = (tf(hint) if tf is not None else hint).schema
        if source is ev:
            ds = rd.read_parquet(
                [f for e in batch for f in ev.epoch_files(log_dir, e)],
                partitioning=None)
        else:
            ds = source.read_epoch(log_dir, batch[0])
            for e in batch[1:]:
                ds = ds.union(source.read_epoch(log_dir, e))
        # whole blocks as batches (batch_size=None): re-slicing Arrow
        # blocks into fixed-size batches measurably costs more than it
        # buys for binary-payload rows; granularity is controlled by
        # segment file size / block size instead
        ds = ds.map_batches(extract, batch_format="pyarrow")
        if tf is not None:
            ds = ds.map_batches(tf, batch_format="pyarrow")
        staged = lake.stage(ds, plan_targets(head, hints), head)
        for commit in lake.commit_staged(staged):
            res.commits.append(commit)
            if commit.skipped:
                res.epochs_skipped.append(commit.epoch)
                continue
            res.epochs_run.append(commit.epoch)
            res.events_applied += _epoch_rows(
                source, source.epoch_files(log_dir, commit.epoch))
            if after_commit is not None:
                after_commit(commit)
    res.wall_s = time.perf_counter() - t0
    return res


def tail_cdc(
    log_dir: str | Path,
    lake_root: str | Path,
    *,
    poll_interval_s: float = 1.0,
    max_idle_polls: int | None = None,
    **run_kwargs,
) -> CdcRunResult:
    """Continuous tail: poll the log for new epochs and commit them as
    they appear — the reference's ``close_when_idle=False`` loop
    (``/root/reference/chomper/importers.py:54-62``, 1 s idle sleep) made
    idempotent: every poll is just ``run_cdc`` from the checkpoint
    cursor, so crash/restart at any point re-enters safely.

    ``max_idle_polls=None`` tails forever; a number bounds idle polls
    (used by tests and drain-then-exit deployments).
    """
    total = CdcRunResult()
    idle = 0
    t0 = time.perf_counter()
    while True:
        res = run_cdc(log_dir, lake_root, **run_kwargs)
        total.epochs_run.extend(res.epochs_run)
        total.epochs_skipped.extend(res.epochs_skipped)
        total.events_applied += res.events_applied
        total.commits.extend(res.commits)
        if res.epochs_run:
            idle = 0
        else:
            idle += 1
            if max_idle_polls is not None and idle >= max_idle_polls:
                break
            time.sleep(poll_interval_s)
    total.wall_s = time.perf_counter() - t0
    return total
