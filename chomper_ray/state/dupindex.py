"""Incrementally maintained MinHash+LSH near-duplicate index under CDC.

The batch near-dup families (stages/dedup.py) answer "what duplicates
exist in this corpus" with one full pass. A CDC corpus asks two more
questions continuously: "which LIVE docs does this new doc
near-duplicate?" (admission control at ingest) and "what are the
current duplicate pairs AFTER this commit?" — and re-running the batch
pipeline per commit is corpus-sized work for a one-partition commit.

``LakeMinHashIndex`` closes that with the engine's LSM-segment
discipline (state/index.py ``_LsmSegmentIndex`` — the same machinery
behind the maintained text index, ANN index and clustered layouts):
each lake commit appends a delta segment of SIGNED BAND ROWS
``(band_id, band_hash, id, minhash, op)`` — op=+1 over the commit's
new partition versions, op=-1 over their previous versions — bucketed
by ``band_hash % num_partitions`` exactly like the batch pipeline's
coarse partitioning. A doc update signs its OLD band hashes out and
its NEW ones in (band hashes that didn't change cancel in place);
maintenance cost is the commit's write amplification (signatures of
old+new touched rows, one shuffle of THEIR band rows), never the
corpus. Merge-on-read commits fold their key-restricted diff and
compaction folds a zero delta — all inherited from the base refresh.

Reads resolve per-(band_id, band_hash, id) last-op-wins across
segments in chain order:

- ``near_dups(texts)``: signature + band hashes of each query text,
  probe only the hashed buckets (≤ bands × live-segments files per
  query, no Ray job), verify by signature Jaccard — the ingest-time
  admission check.
- ``pairs()``: current verified duplicate pairs as a Dataset — one
  Ray task per bucket (bucket-capped like the batch path), globally
  deduped with the same ``_dedup_pairs_ds`` shuffle. Equals the batch
  pipeline's pair set over the resolved live state by construction
  (same shingle/permutation/banding/threshold parameters — pinned by
  pytest), because both derive from the same deterministic kernels.

Scale: band rows are ``bands × (8 B hash + num_perm × 8 B sig)`` per
doc per segment side — the signature rides with its band row so
verification is co-located, the deliberate trade documented in
``_band_rows``. ``compact()`` re-bounds read amplification on the
usual cadence.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.stages.dedup import (_band_rows, _perm_params,
                                      char_shingle_hashes,
                                      minhash_signature)
from chomper_ray.state.index import _LsmSegmentIndex

_BUCKET_COLS = ["band_id", "band_hash", "id", "minhash", "op"]


def _resolve_band_frames(parts: list[pd.DataFrame]) -> pd.DataFrame | None:
    """Per-(band_id, band_hash, id) last-op-wins across segments in
    chain order (within a segment -1 sorts before +1, so a doc whose
    band hash survived its update stays live)."""
    if not parts:
        return None
    cat = pd.concat(parts, ignore_index=True)
    cat = cat.sort_values(["band_id", "band_hash", "id", "_r", "op"],
                          kind="stable")
    cat = cat.drop_duplicates(subset=["band_id", "band_hash", "id"],
                              keep="last")
    return cat[cat["op"] == 1][["band_id", "band_hash", "id", "minhash"]]


class _ProbeKernel:
    """Near-dup probe over a FROZEN segment plan — picklable, so the
    same kernel serves the driver-side ``near_dups`` convenience AND
    the distributed admission stage (each map task reads only the
    buckets its batch's band hashes touch).

    Probing is BATCHED: one signature matrix + band-row frame for the
    whole query batch, grouped by bucket, then ONE merge-join per
    touched bucket against the resolved band rows (a per-row boolean
    scan of a 100 k-row bucket per band is what made the naive probe
    ~5 q/s at 10^6 docs — the merge is the 30× fix, measured in
    scripts/stress_dupindex.py). Resolved buckets are LRU-cached
    across the batches one kernel copy serves (driver-side probing; a
    task's batches in the distributed gate), capped at
    ``max_cached_buckets`` so residency is bounded by cap × bucket
    size, not the index; size the index's ``num_partitions`` so one
    bucket fits a worker's heap at corpus scale."""

    def __init__(self, plan: dict[int, list[tuple[int, str]]],
                 a: np.ndarray, b: np.ndarray, shingle_k: int,
                 bands: int, num_partitions: int, threshold: float,
                 max_cached_buckets: int = 64):
        self.plan = plan
        self.a, self.b = a, b
        self.shingle_k = shingle_k
        self.bands = bands
        self.num_partitions = num_partitions
        self.threshold = threshold
        self.max_cached_buckets = max_cached_buckets
        from collections import OrderedDict
        self._cache: "OrderedDict[int, pd.DataFrame | None]" = \
            OrderedDict()

    def _bucket(self, pid: int) -> pd.DataFrame | None:
        if pid in self._cache:
            self._cache.move_to_end(pid)
            return self._cache[pid]
        parts = []
        for rank, f in self.plan.get(pid, ()):
            t = pq.read_table(f).to_pandas()
            if len(t):
                parts.append(t.assign(_r=rank))
        res = _resolve_band_frames(parts)
        if res is not None:
            res = res.reset_index(drop=True)
        self._cache[pid] = res
        if len(self._cache) > self.max_cached_buckets:
            self._cache.popitem(last=False)
        return res

    def matches(self, texts) -> list[dict]:
        """Per query text, the live ids whose signature Jaccard ≥
        threshold as ``{id: sim}`` — one merge-join per touched
        bucket for the whole batch."""
        texts = list(texts)
        out: list[dict] = [dict() for _ in texts]
        if not texts:
            return out
        sigs = np.stack([
            minhash_signature(char_shingle_hashes(t or "", self.shingle_k),
                              self.a, self.b) for t in texts])
        q = _band_rows(np.arange(len(texts), dtype=np.int64), sigs,
                       self.bands)
        q = q.rename(columns={"id": "_q"})
        q["_pid"] = (q["band_hash"].to_numpy()
                     % np.uint64(self.num_partitions)).astype(np.int64)
        for pid, qg in q.groupby("_pid", sort=False):
            res = self._bucket(int(pid))
            if res is None:
                continue
            hit = res.merge(qg[["band_id", "band_hash", "_q"]],
                            on=["band_id", "band_hash"], how="inner")
            if not len(hit):
                continue
            hit = hit.drop_duplicates(subset=["_q", "id"])
            s = np.stack([np.asarray(x, dtype=np.uint64)
                          for x in hit["minhash"]])
            qi = hit["_q"].to_numpy()
            sims = (s == sigs[qi]).mean(axis=1)
            keep = sims >= self.threshold
            for qq, ii, sim in zip(qi[keep], hit["id"].to_numpy()[keep],
                                   sims[keep]):
                out[int(qq)][ii] = float(sim)
        return out

    def matches_one(self, text: str | None) -> dict:
        return self.matches([text])[0]


class _AdmissionFilter:
    """``map_batches`` callable: drop events whose ``text`` near-
    duplicates a live doc under a DIFFERENT key, per the frozen probe
    kernel — i.e. admission is judged against the corpus as of the
    index's last refresh (the previous commit, when composed via
    ``run_cdc_admitted``). Events for the doc's own key always pass
    (a page updating itself is not a duplicate), as do deletes and
    null-text rows; two near-dup NEW docs arriving in the SAME epoch
    are both admitted (documented epoch-granularity semantics).

    With ``rejects_dir`` set, each task appends its rejected rows'
    provenance — (key, dup_of = the best-similarity live match, sim,
    epoch) — as a parquet part file under that directory: the
    observability feed a crawler needs ("what did the gate drop, and
    which page did it duplicate"). Written from inside map tasks, so
    delivery is at-least-once under task retries; dedup on
    (epoch, key) if exactness matters downstream. The per-epoch
    directory is cleaned by ``run_cdc_admitted`` at epoch start, so a
    crash-and-replay of an UNcommitted epoch never double-logs."""

    def __init__(self, kernel: _ProbeKernel, key_col: str, text_col: str,
                 op_col: str, delete_ops: tuple,
                 rejects_dir: str | None = None,
                 epoch: int | None = None):
        self.kernel = kernel
        self.key_col = key_col
        self.text_col = text_col
        self.op_col = op_col
        self.delete_ops = tuple(delete_ops)
        self.rejects_dir = str(rejects_dir) if rejects_dir else None
        self.epoch = epoch

    def _log_rejects(self, keys, found, dropped: list[int],
                     fj: dict[int, int]) -> None:
        rows = []
        for i in dropped:
            hits = {m: s for m, s in found[fj[i]].items()
                    if m != keys[i]}
            dup_of = max(hits, key=hits.get)
            rows.append((keys[i], dup_of, hits[dup_of]))
        d = Path(self.rejects_dir)
        d.mkdir(parents=True, exist_ok=True)
        t = pa.table({
            self.key_col: pa.array([r[0] for r in rows]),
            "dup_of": pa.array([r[1] for r in rows]),
            "sim": pa.array([r[2] for r in rows], type=pa.float64()),
            "epoch": pa.array([self.epoch] * len(rows), type=pa.int64()),
        })
        pq.write_table(t, d / f"part-{uuid.uuid4().hex}.parquet")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        keys = batch[self.key_col].to_pylist()
        texts = batch[self.text_col].to_pylist()
        ops = (batch[self.op_col].to_pylist()
               if self.op_col in batch.column_names
               else [None] * batch.num_rows)
        mask = np.ones(batch.num_rows, dtype=bool)
        probe = [i for i, (op, t) in enumerate(zip(ops, texts))
                 if op not in self.delete_ops and t is not None]
        found = self.kernel.matches([texts[i] for i in probe])
        fj = {i: j for j, i in enumerate(probe)}
        for j, i in enumerate(probe):
            if any(m != keys[i] for m in found[j]):
                mask[i] = False
        if mask.all():
            return batch
        if self.rejects_dir is not None:
            self._log_rejects(keys, found,
                              [i for i in probe if not mask[i]], fj)
        return batch.filter(pa.array(mask))


class LakeMinHashIndex(_LsmSegmentIndex):
    """MinHash+LSH near-dup index over a ``LakeTable``, maintained
    commit by commit as signed band-row segments (module docstring)."""

    def __init__(self, lake, root, col: str = "text",
                 key_col: str | None = None, num_perm: int = 64,
                 bands: int = 16, shingle_k: int = 5, seed: int = 12345,
                 num_partitions: int = 32, threshold: float = 0.8,
                 max_bucket: int = 200):
        super().__init__(lake, root)
        if num_perm % bands:
            raise ValueError(f"num_perm {num_perm} must divide into "
                             f"bands {bands}")
        self.col = col
        self.key_col = key_col or lake.key
        self.num_perm = int(num_perm)
        self.bands = int(bands)
        self.shingle_k = int(shingle_k)
        self.seed = int(seed)
        self.num_partitions = int(num_partitions)
        self.threshold = float(threshold)
        self.max_bucket = int(max_bucket)
        self._a, self._b = _perm_params(num_perm, seed)

    def stats(self) -> dict:
        live = self._live_segments()
        return {"segments": len(live),
                "band_rows": sum(s.get("band_rows", 0) for s in live),
                "rows_scanned": sum(s.get("rows_scanned", 0)
                                    for s in live)}

    # -- segment construction -------------------------------------------------
    def _signature_matrix(self, texts) -> np.ndarray:
        return np.stack([
            minhash_signature(char_shingle_hashes(t, self.shingle_k),
                              self._a, self._b)
            for t in texts]) if len(texts) else \
            np.empty((0, self.num_perm), dtype=np.uint64)

    def _band_ds(self, new_files: list[str], old_files: list[str]):
        """Signed band rows over LIVE rows of both file sets in one
        read, op derived per row from the block's source path (the
        single-read discipline every LSM writer here follows — a
        two-branch union can livelock the streaming executor at
        large-segment scale; see _LsmSegmentIndex)."""
        import ray.data as rd

        from chomper_ray.stages.merge import INTERNAL_DELETED

        col, key, bands, nb = self.col, self.key_col, self.bands, \
            self.num_partitions
        sig_of = self._signature_matrix
        assert not (set(new_files) & set(old_files))  # sign by path
        signs = {f: 1 for f in new_files}
        signs.update({f: -1 for f in old_files})

        def to_bands(df: pd.DataFrame) -> pd.DataFrame:
            op_rows = df["path"].map(signs).astype("int8")
            df = df[~df[INTERNAL_DELETED].astype(bool)]
            op_rows = op_rows[df.index]
            if not len(df):
                return pd.DataFrame({
                    "band_id": pd.Series(dtype="int32"),
                    "band_hash": pd.Series(dtype="uint64"),
                    "id": df[key],
                    "minhash": pd.Series(dtype="object"),
                    "op": pd.Series(dtype="int8"),
                    "_bb": pd.Series(dtype="int32")})
            sigs = sig_of(df[col].fillna("").astype(str).tolist())
            out = _band_rows(df[key].to_numpy(), sigs, bands,
                             attach_sigs=True)
            # _band_rows emits the n docs once per band, in band order —
            # ops tile the same way
            out["op"] = np.tile(op_rows.to_numpy(), bands)
            out["_bb"] = (out["band_hash"].to_numpy()
                          % np.uint64(nb)).astype(np.int32)
            return out[["band_id", "band_hash", "id", "minhash", "op",
                        "_bb"]]

        ds = rd.read_parquet(list(signs),
                             columns=[key, col, INTERNAL_DELETED],
                             include_paths=True)
        return ds.map_batches(to_bands, batch_format="pandas")

    def _write_segment(self, cid: int, new_files: list[str],
                       old_files: list[str], full: bool) -> dict:
        seg_dir = self.root / (f"seg-{cid:06d}-full" if full
                               else f"seg-{cid:06d}")
        seg_dir.mkdir(parents=True, exist_ok=True)
        segs = str(seg_dir)

        def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
            pid = int(g["_bb"].iloc[0])
            g = g.drop(columns=["_bb"]) \
                .sort_values(["band_id", "band_hash", "id", "op"],
                             kind="stable")
            d = Path(segs) / f"b={pid:05d}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
            pq.write_table(pa.Table.from_pandas(g, preserve_index=False)
                           .replace_schema_metadata(None), tmp)
            os.replace(tmp, d / "part.parquet")
            (d / "_SUCCESS").touch()
            return pd.DataFrame({"pid": [pid], "band_rows": [len(g)]})

        n_rows = 0
        if new_files or old_files:
            meta = self._band_ds(new_files, old_files) \
                .groupby("_bb").map_groups(
                    write_bucket, batch_format="pandas").to_pandas()
            n_rows = int(meta["band_rows"].sum()) if len(meta) else 0
        # scan cost from parquet metadata alone — no second data pass
        scanned = sum(pq.read_metadata(f).num_rows
                      for f in [*new_files, *old_files])
        marker = {"cid": int(cid), "full": bool(full),
                  "band_rows": n_rows, "rows_scanned": int(scanned)}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        return marker

    # -- resolution -----------------------------------------------------------
    def _bucket_frames(self, pid: int) -> list[pd.DataFrame]:
        parts = []
        for rank, seg in enumerate(self._live_segments()):
            d = Path(seg["dir"]) / f"b={pid:05d}"
            if not (d / "_SUCCESS").exists():
                continue
            t = pq.read_table(d / "part.parquet").to_pandas()
            if len(t):
                parts.append(t.assign(_r=rank))
        return parts

    @staticmethod
    def _resolve(parts: list[pd.DataFrame]) -> pd.DataFrame | None:
        return _resolve_band_frames(parts)

    # -- reads ----------------------------------------------------------------
    def _segment_plan(self) -> dict[int, list[tuple[int, str]]]:
        """pid → [(chain rank, bucket file)] over live segments."""
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(self._live_segments()):
            for d in Path(seg["dir"]).glob("b=*"):
                if (d / "_SUCCESS").exists():
                    plan.setdefault(int(d.name.split("=")[1]), []) \
                        .append((rank, str(d / "part.parquet")))
        return plan

    def probe_kernel(self) -> _ProbeKernel:
        """Freeze the current segment chain into a picklable probe."""
        return _ProbeKernel(self._segment_plan(), self._a, self._b,
                            self.shingle_k, self.bands,
                            self.num_partitions, self.threshold)

    def admission_filter(self, op_col: str = "op",
                         delete_ops: tuple = ("delete",),
                         rejects_dir: str | None = None,
                         epoch: int | None = None):
        """Distributed ingest-time dedup gate: a ``map_batches``
        callable (pyarrow batches) dropping events whose text
        near-duplicates a live doc under a different key, judged
        against the index as frozen NOW. Compose per epoch via
        ``run_cdc_admitted`` (refresh between commits keeps the gate
        current). ``rejects_dir`` turns on the rejected-event
        provenance side-log (see ``_AdmissionFilter``)."""
        return _AdmissionFilter(self.probe_kernel(), self.key_col,
                                self.col, op_col, delete_ops,
                                rejects_dir=rejects_dir, epoch=epoch)
    def near_dups(self, texts) -> pd.DataFrame:
        """Live docs near-duplicating each query text: signature +
        band probe over only the hashed buckets, verified by signature
        Jaccard ≥ ``threshold``. Returns (query, id, sim) — ``query``
        is the position in ``texts``. Driver-side file reads only
        (≤ bands × live segments per query, buckets cached across
        queries) — the ingest-time admission check."""
        texts = list(texts)
        kernel = self.probe_kernel()
        out_q, out_id, out_sim = [], [], []
        for qi, found in enumerate(kernel.matches(texts)):
            for i, sim in found.items():
                out_q.append(qi)
                out_id.append(i)
                out_sim.append(sim)
        return pd.DataFrame({"query": pd.array(out_q, dtype="int64"),
                             "id": out_id,
                             "sim": pd.array(out_sim, dtype="float64")}) \
            .sort_values(["query", "id"], kind="stable") \
            .reset_index(drop=True)

    def pairs(self):
        """Current verified duplicate pairs over live state as a
        Dataset (a, b, truncated, est_jaccard — same surface as the
        batch pipeline): one Ray task per band bucket resolving the
        segment chain, bucket-capped pair generation, vectorized
        signature verify, global (a, b) dedup shuffle."""
        import ray.data as rd

        from chomper_ray.stages.dedup import _dedup_pairs_ds

        plan = self._segment_plan()
        sch = self.lake.current_schema()
        key_t = sch.field(self.key_col).type if sch is not None \
            else pa.string()
        target = pa.schema([("a", key_t), ("b", key_t),
                            ("truncated", pa.bool_()),
                            ("est_jaccard", pa.float64())])
        if not plan:
            return rd.from_arrow(target.empty_table())
        threshold, max_bucket = self.threshold, self.max_bucket
        resolve = self._resolve

        def bucket_pairs(batch: pa.Table) -> pa.Table:
            frames = []
            for pid in batch["pid"].to_pylist():
                parts = []
                for rank, f in plan[int(pid)]:
                    t = pq.read_table(f).to_pandas()
                    if len(t):
                        parts.append(t.assign(_r=rank))
                res = resolve(parts)
                if res is None or not len(res):
                    continue
                sizes = res.groupby(["band_id", "band_hash"])["id"] \
                    .transform("size")
                multi = res[sizes > 1]
                for _, grp in multi.groupby(["band_id", "band_hash"],
                                            sort=False):
                    grp = grp.sort_values("id")
                    truncated = len(grp) > max_bucket
                    if truncated:
                        grp = grp.iloc[:max_bucket]
                    ids = grp["id"].to_numpy()
                    sigs = np.stack([np.asarray(s, dtype=np.uint64)
                                     for s in grp["minhash"]])
                    ia, ib = np.triu_indices(len(ids), k=1)
                    est = (sigs[ia] == sigs[ib]).mean(axis=1)
                    keep = est >= threshold
                    if not keep.any():
                        continue
                    frames.append(pd.DataFrame({
                        "a": ids[ia][keep], "b": ids[ib][keep],
                        "truncated": truncated,
                        "est_jaccard": est[keep].astype(np.float64)}))
            if not frames:
                return target.empty_table()
            out = pd.concat(frames, ignore_index=True) \
                .drop_duplicates(subset=["a", "b"])
            return pa.Table.from_arrays(
                [pa.array(out[f.name], type=f.type, from_pandas=True)
                 for f in target], schema=target)

        pids = sorted(plan)
        raw = (rd.from_arrow(pa.table({"pid": pa.array(
                   pids, type=pa.int32())}))
               .repartition(len(pids))
               .map_batches(bucket_pairs, batch_format="pyarrow"))
        return _dedup_pairs_ds(raw)

    # -- maintenance ----------------------------------------------------------
    def compact(self) -> dict:
        """Fold all live segments into one full segment at the newest
        applied cid (bounded by index size — compaction cadence, not
        per commit)."""
        import shutil

        segs = self._segments()
        if not segs:
            return {"compacted": False}
        live = self._live_segments()
        if len(live) == 1 and live[0].get("full"):
            return {"compacted": False}
        cid = segs[-1]["cid"]
        seg_dir = self.root / f"seg-{cid:06d}-full"
        seg_dir.mkdir(parents=True, exist_ok=True)
        n_rows = 0
        for pid in range(self.num_partitions):
            res = self._resolve(self._bucket_frames(pid))
            if res is None or not len(res):
                continue
            res = res.sort_values(["band_id", "band_hash", "id"],
                                  kind="stable")
            res["op"] = np.int8(1)
            d = seg_dir / f"b={pid:05d}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
            pq.write_table(pa.Table.from_pandas(
                res[_BUCKET_COLS], preserve_index=False)
                .replace_schema_metadata(None), tmp)
            os.replace(tmp, d / "part.parquet")
            (d / "_SUCCESS").touch()
            n_rows += len(res)
        marker = {"cid": int(cid), "full": True, "band_rows": n_rows,
                  "rows_scanned": 0}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        for s in segs:
            if s["dir"] != str(seg_dir):
                shutil.rmtree(s["dir"], ignore_errors=True)
        return {"compacted": True, "band_rows": n_rows}


def run_cdc_admitted(log_dir, lake_root, index_root, *,
                     num_partitions: int | None = None,
                     lake_kwargs: dict | None = None,
                     index_kwargs: dict | None = None,
                     rejects_root: str | None = None,
                     tail: bool = False,
                     **cdc_kwargs):
    """Dedup-at-ingest: ``run_cdc`` with a near-dup admission gate —
    the composition a webtext crawler actually runs (don't let the
    corpus fill with near-copies; reject them at the door instead of
    paying a full-corpus dedup later).

    Per epoch: the admission filter is frozen from the index's current
    segments and applied distributed (after text extraction, before
    staging); after each commit the ``after_commit`` hook folds the
    commit's signed band rows into the index, so epoch N+1's gate sees
    everything epoch N admitted. Near-dup events are judged against
    the previous commit's live state — two near-dup NEW docs in one
    epoch are both admitted (epoch-granularity semantics, tested).
    Events for an already-indexed key always pass; the gate never
    blocks updates/deletes of a doc by itself.

    Resumable exactly like ``run_cdc``: the index refresh is
    idempotent-from-anywhere (it walks the manifest chain from its own
    applied marker), so a crash between commit and refresh re-enters
    with the gate catching up on the next epoch.

    ``rejects_root`` enables the provenance side-log: each epoch's
    rejected events land under ``rejects_root/epoch=<N>/`` as
    (key, dup_of, sim, epoch) parquet (read back with
    ``read_rejects``); the epoch directory is cleaned when the gate
    for that epoch is built, so replaying an uncommitted epoch never
    double-logs (committed epochs are skipped and keep their log).

    ``tail=True`` runs the gated loop continuously (``tail_cdc``):
    every poll re-enters ``run_cdc`` from the checkpoint cursor with
    the SAME index object, so the gate stays current across polls.
    ``poll_interval_s`` / ``max_idle_polls`` pass through.
    """
    from chomper_ray.pipelines.cdc import run_cdc, tail_cdc
    from chomper_ray.state.lake import LakeTable

    lake = LakeTable(lake_root, num_partitions=num_partitions,
                     **(lake_kwargs or {}))
    idx = LakeMinHashIndex(lake, index_root, **(index_kwargs or {}))
    idx.refresh()  # catch up with any pre-existing commits

    def gate(epoch: int):
        rej = None
        if rejects_root is not None:
            rej = Path(rejects_root) / f"epoch={epoch}"
            shutil.rmtree(rej, ignore_errors=True)
            rej = str(rej)
        return idx.admission_filter(rejects_dir=rej, epoch=epoch)

    fn = tail_cdc if tail else run_cdc
    res = fn(
        log_dir, lake_root, num_partitions=num_partitions,
        lake_kwargs=lake_kwargs,
        epoch_transform=gate,
        after_commit=_chain_hooks(idx, cdc_kwargs.pop("after_commit",
                                                      None)),
        **cdc_kwargs)
    return res, idx


def read_rejects(rejects_root) -> pd.DataFrame:
    """The admission gate's rejected-event provenance log as one
    frame: (key, dup_of, sim, epoch), all epochs, sorted. Rejects are
    telemetry-sized (O(rejected events)); for a corpus-scale analysis
    read the directory with ``ray.data.read_parquet`` instead."""
    files = sorted(Path(rejects_root).glob("epoch=*/part-*.parquet"))
    if not files:
        return pd.DataFrame(
            {"key": pd.array([], dtype="object"),
             "dup_of": pd.array([], dtype="object"),
             "sim": pd.array([], dtype="float64"),
             "epoch": pd.array([], dtype="int64")})
    df = pd.concat([pq.read_table(f).to_pandas() for f in files],
                   ignore_index=True)
    return df.sort_values(["epoch", df.columns[0]],
                          kind="stable").reset_index(drop=True)


def _chain_hooks(idx, user_hook):
    def hook(commit):
        idx.refresh()
        if user_hook is not None:
            user_hook(commit)
    return hook
