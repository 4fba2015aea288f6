"""Incrementally maintained derived layouts over a LakeTable.

``LakeBucketLayout`` keeps a ``write_partitioned``-compatible bucketed
layout of a DERIVED projection of the lake in sync with its commits —
the same per-commit maintenance discipline as ``MaterializedAgg``
(state/matview.py) and ``LakeTextIndex`` (state/index.py), applied to
the storage-layout family (state/output.py): after ``refresh()`` the
layout serves ``bucket_join`` / ``bucket_agg`` / ``bucket_lookup``
against CURRENT lake state, so the pay-the-shuffle-once join elision
keeps working under CDC instead of silently staling.

The trick that makes maintenance trivial here: the layout is keyed by
the LAKE's own key with the LAKE's own partition count, so layout
bucket i derives from exactly lake partition i — no shuffle ever. A
refresh diffs the head manifest's per-partition fingerprint (base file
+ pending merge-on-read delta chain) against the fingerprints recorded
at the last refresh and rewrites ONLY the partitions whose RESOLVED
content may have changed (copy-on-write gives a changed partition a
new file name; merge-on-read appends a delta file — the rewrite task
then resolves base ⊕ deltas, so the layout stays fresh at a
delta-bearing head without compaction). Cost ∝ the changed
partitions' size — write amplification, never table size — and the
diff skips intermediate commits entirely (only head state matters for
a non-aggregating projection).

Exactly-once: partition files land tmp→rename with ``_SUCCESS``
markers; ``_STATE.json`` (the fingerprint map + applied commit id) is
replaced atomically LAST, so a torn refresh simply redoes its
deterministic rewrites. ``transform`` must be row-local and
deterministic (it runs once per changed partition inside a Ray task).

Derived layouts keyed by a DIFFERENT column need the delta-segment
pattern instead (see LakeTextIndex) — construct with the lake key or
use the index machinery.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Callable, Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.state.fs import fs_read_table
from chomper_ray.state.lake import (LakeTable, _resolve_mor_pid,
                                    load_manifest)
from chomper_ray.state.output import _write_layout


class LakeBucketLayout:
    """Maintained bucketed layout: lake partition i → layout bucket i.

    ``transform(df) -> df`` maps LIVE lake rows to the layout's rows;
    it must keep the lake key column (validated). ``columns`` prunes
    the lake read.
    """

    def __init__(self, lake: LakeTable, root: str | Path,
                 transform: Callable[[pd.DataFrame], pd.DataFrame]
                 | None = None,
                 columns: Sequence[str] | None = None):
        self.lake = lake
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.transform = transform
        self.columns = list(columns) if columns else None

    # -- state ----------------------------------------------------------------
    def _state(self) -> dict:
        p = self.root / "_STATE.json"
        if not p.exists():
            return {"applied_cid": None, "files": {}}
        return json.loads(p.read_text())

    def _write_state(self, st: dict) -> None:
        tmp = self.root / f"._STATE.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(st))
        os.replace(tmp, self.root / "_STATE.json")

    def applied_commit(self):
        return self._state()["applied_cid"]

    # -- maintenance ----------------------------------------------------------
    def refresh(self) -> dict:
        """Sync the layout to the lake's head manifest. Returns
        ``{"applied_cid", "rewritten": [pids], "removed": [pids],
        "skipped_neutral": [pids]}`` (the last: fingerprints moved
        by content-neutral maintenance only — no rewrite);
        idempotent (no-op when the head hasn't moved)."""
        from chomper_ray.stages.merge import INTERNAL_DELETED

        import ray.data as rd

        from chomper_ray.state.fs import require_local_lake_root

        require_local_lake_root(self.lake, type(self).__name__)
        man = load_manifest(self.lake.root)
        if man is None:
            return {"applied_cid": None, "rewritten": [], "removed": [],
                    "skipped_neutral": []}
        st = self._state()
        # fingerprint = base file + pending delta chain: a merge-on-read
        # ingest (new delta) or a compaction (new base, empty chain)
        # changes it exactly when the partition's RESOLVED content may
        # have changed — the layout projects resolved state, so it
        # maintains through a delta-bearing head without compaction
        head_parts = {int(p): v for p, v in man["partitions"].items()
                      if v.get("file") or v.get("deltas")}
        head_files = {p: "|".join([v.get("file") or ""]
                                  + [d["file"]
                                     for d in v.get("deltas", [])])
                      for p, v in head_parts.items()}
        changed = sorted(p for p, f in head_files.items()
                         if st["files"].get(str(p)) != f)
        removed = sorted(int(p) for p in st["files"]
                         if int(p) not in head_files)
        if not changed and not removed and \
                st["applied_cid"] == man["epoch"]:
            return {"applied_cid": man["epoch"], "rewritten": [],
                    "removed": [], "skipped_neutral": []}
        # a changed fingerprint whose commits since the last refresh
        # are ALL live-content-neutral maintenance needs no rewrite:
        # compaction folds deltas this layout already projected, purge
        # drops tombstoned rows it never projects. Metadata-only walk
        # of the manifests in (applied, head].
        skipped_neutral: list[int] = []
        if changed and st["applied_cid"] is not None:
            from chomper_ray.state.lake import (committed_epochs,
                                                is_compaction_manifest)

            walk = [load_manifest(self.lake.root, c)
                    for c in committed_epochs(self.lake.root)
                    if st["applied_cid"] < c <= man["epoch"]]
            if all(w is not None for w in walk):
                content_changed: set[int] = set()
                for w in walk:
                    if is_compaction_manifest(w) or \
                            "purged_tombstones" in w:
                        continue
                    content_changed.update(
                        int(ln["partition_id"])
                        for ln in w.get("lineage", []))
                skipped_neutral = [p for p in changed
                                   if p not in content_changed]
                changed = [p for p in changed if p in content_changed]

        key = self.lake.key
        lake_root = self.lake.root
        out_root = str(self.root)
        transform = self.transform
        columns = self.columns
        if columns is not None:
            read_cols = list(dict.fromkeys(
                [key, *columns, INTERNAL_DELETED]))
        else:
            read_cols = None
        dc = man.get("delta_commits", {})
        mor_kw = self.lake._mor_kwargs()

        def rewrite(batch: pd.DataFrame) -> pd.DataFrame:
            out = []
            for pid in batch["pid"].astype(int):
                pid = int(pid)
                part = head_parts[pid]
                if part.get("deltas"):
                    t = _resolve_mor_pid(
                        lake_root, part, dc,
                        columns=(None if columns is None
                                 else [key, *columns]), **mor_kw)
                else:
                    t = fs_read_table(lake_root / part["file"],
                                      columns=read_cols)
                df = t.to_pandas()
                df = df[~df[INTERNAL_DELETED].astype(bool)]
                df = df.drop(columns=[c for c in df.columns
                                      if c == INTERNAL_DELETED])
                if transform is not None:
                    df = transform(df)
                    if key not in df.columns:
                        raise ValueError(
                            f"transform must keep the lake key {key!r}")
                elif columns is not None:
                    df = df[list(dict.fromkeys([key, *columns]))]
                df = df.sort_values(key, kind="stable")
                d = Path(out_root) / f"p={pid:05d}"
                d.mkdir(parents=True, exist_ok=True)
                tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
                pq.write_table(pa.Table.from_pandas(df,
                                                    preserve_index=False),
                               tmp)
                os.replace(tmp, d / "part.parquet")
                (d / "_SUCCESS").touch()
                out.append(pid)
            return pd.DataFrame({"pid": pd.Series(out, dtype="int64")})

        if changed:
            (rd.from_arrow(pa.table({"pid": pa.array(changed,
                                                     pa.int32())}))
             .repartition(len(changed))
             .map_batches(rewrite, batch_format="pandas").count())
        import shutil

        for pid in removed:
            shutil.rmtree(Path(out_root) / f"p={pid:05d}",
                          ignore_errors=True)
        _write_layout(self.root, self.lake.key, self.lake.num_partitions)
        self._write_state({"applied_cid": man["epoch"],
                           "files": {str(p): f
                                     for p, f in head_files.items()}})
        return {"applied_cid": man["epoch"], "rewritten": changed,
                "removed": removed, "skipped_neutral": skipped_neutral}
