"""Incrementally maintained ANN (IVF) index over a ``LakeTable``
embedding column — closing the last write-once index family: the
cell-partitioned IVF layout (stages/similarity.py ivf_build_index)
goes stale after every lake commit and a 100-TB CDC pipeline cannot
re-cluster the corpus per epoch.

``LakeANNIndex`` applies the ``LakeTextIndex`` LSM discipline
(state/index.py _LsmSegmentIndex) to vectors: each lake commit appends
a DELTA SEGMENT of signed rows — op=+1 for the touched partitions' new
live vectors, op=-1 for their previous versions — partitioned by IVF
cell exactly like the base. Cell assignment is row-local once the
centroids are fixed (trained on a sample at the first full build,
stored in ``root/_centroids.npy`` so the index is self-describing),
so maintenance cost is ∝ the commit's write amplification: embed-assign
old+new versions of the touched partitions and shuffle ONLY their rows
into cell files. Never the corpus.

A vector UPDATE may move between cells: its -1 lands in the old cell
and its +1 in the new cell, so per-cell last-op-wins by key (segments
in chain order; within a segment -1 sorts before +1) resolves both the
in-place and the cell-crossing case. Search probes the ``nprobe``
nearest cells and reads ≤ live_segments files per probed cell — one
Ray task per cell resolves and scores against the broadcast query
matrix, returning only local top-k. ``compact()`` folds all segments
into a fresh full segment to re-bound read amplification (the LSM
trade). With ``nprobe = n_cells`` search is EXHAUSTIVE — exactly
brute-force cosine top-k over the live lake state, which is what the
``cdc_ann_vectors`` driver query hash-verifies against SQL.

Centroids are deliberately immutable (standard IVF practice): drift is
a recall concern, not a correctness one — resolution is exact whatever
the partitioning. Re-clustering = build a fresh index root.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from chomper_ray.stages.merge import INTERNAL_DELETED
from chomper_ray.stages.similarity import _normalize, train_ivf_centroids
from chomper_ray.state.index import _LsmSegmentIndex


def _read_cell_file(f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One cell file as (keys, op, matrix) — the vector column comes
    out of Arrow as ONE flattened buffer reshaped to (n, dim), never a
    per-row object array (np.stack over 15 k object cells was the probe
    path's dominant cost at 10^6-vector scale)."""
    t = pq.read_table(f)
    keys = np.asarray(t["key"].to_pylist(), dtype=object)
    op = t["op"].to_numpy()
    col = t["vec"].combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    mat = flat.reshape(len(t), -1) if len(t) else \
        flat.reshape(0, 0)
    return keys, op, mat


def _mat_to_list_array(mat: np.ndarray) -> pa.ListArray:
    """(n, d) matrix → list<...> arrow column without per-row boxing."""
    n, d = mat.shape
    return pa.ListArray.from_arrays(
        pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
        pa.array(mat.reshape(-1)))


def _resolve_cell_parts(parts):
    """Per-key last-op-wins across ``(rank, keys, op, mat)`` chain
    parts; returns live ``(keys, mat)`` or ``None``. Ordering matches
    the historical pandas sort ["key", "_r", "op"] keep-last."""
    if not parts:
        return None
    keys = np.concatenate([p[1] for p in parts])
    op = np.concatenate([p[2] for p in parts])
    rank = np.concatenate([np.full(len(p[1]), p[0], dtype=np.int32)
                           for p in parts])
    mat = np.vstack([p[3] for p in parts])
    order = np.lexsort((op, rank, keys))
    keys, op, mat = keys[order], op[order], mat[order]
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[:-1] != keys[1:]
    live = last & (op == 1)
    if not live.any():
        return None
    return keys[live], mat[live]


class _VecProbeKernel:
    """Cosine near-dup probe over a FROZEN cell plan — picklable, so
    the same kernel serves driver-side ``near_vecs`` AND the
    distributed admission stage (the embedding twin of
    ``dupindex._ProbeKernel``; ``_AdmissionFilter`` consumes either
    interchangeably because its logic never looks inside the probed
    values).

    Probing is batched per cell: queries are assigned to their
    ``nprobe`` nearest cells (``None`` = every cell — EXHAUSTIVE, the
    exact-semantics setting the SQL oracle verifies; production sets
    nprobe for the standard IVF recall/cost trade), each touched cell
    is resolved once (live per-key last-op-wins across segments,
    LRU-cached up to ``max_cached_cells``) and scored as one float64
    matmul against the whole query batch."""

    def __init__(self, plan: dict[int, list[tuple[int, str]]],
                 centroids: np.ndarray | None, threshold: float,
                 nprobe: int | None = None,
                 max_cached_cells: int = 64):
        self.plan = plan
        self.centroids = centroids
        self.threshold = float(threshold)
        self.nprobe = nprobe
        self.max_cached_cells = max_cached_cells
        from collections import OrderedDict
        self._cache: "OrderedDict[int, tuple | None]" = OrderedDict()

    def _cell(self, c: int):
        if c in self._cache:
            self._cache.move_to_end(c)
            return self._cache[c]
        parts = []
        for rank, f in self.plan.get(c, ()):
            keys, op, mat = _read_cell_file(f)
            if len(keys):
                parts.append((rank, keys, op, mat))
        res = _resolve_cell_parts(parts)
        if res is not None:
            keys, m = res
            m = m.astype(np.float64)
            m /= np.maximum(
                np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            res = (keys, m)
        self._cache[c] = res
        if len(self._cache) > self.max_cached_cells:
            self._cache.popitem(last=False)
        return res

    def matches(self, vecs) -> list[dict]:
        """Per query vector, the live keys whose cosine similarity ≥
        threshold as ``{key: sim}``."""
        vecs = list(vecs)
        out: list[dict] = [dict() for _ in vecs]
        if self.centroids is None or not self.plan or not vecs:
            return out
        q = np.asarray([np.asarray(v, dtype=np.float64) for v in vecs])
        qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True),
                            1e-12)
        cent = self.centroids
        if self.nprobe is None or self.nprobe >= len(cent):
            probe = np.tile(np.arange(len(cent)), (len(qn), 1))
        else:
            probe = np.argsort(-(qn.astype(np.float32) @ cent.T),
                               axis=1)[:, :self.nprobe]
        from collections import defaultdict
        per_cell: dict[int, list[int]] = defaultdict(list)
        for row in range(len(qn)):
            for c in probe[row]:
                per_cell[int(c)].append(row)
        for c, rows in per_cell.items():
            resolved = self._cell(c)
            if resolved is None:
                continue
            keys, m = resolved
            sc = qn[rows] @ m.T
            hq, hk = np.nonzero(sc >= self.threshold)
            for i, j in zip(hq, hk):
                out[rows[i]][keys[j]] = float(sc[i, j])
        return out


class LakeANNIndex(_LsmSegmentIndex):
    def __init__(self, lake, root, vec_col: str = "embedding",
                 key_col: str | None = None, n_cells: int = 16,
                 train_rows: int = 20_000, seed: int = 5):
        super().__init__(lake, root)
        self.vec_col = vec_col
        self.key_col = key_col or lake.key
        self.n_cells = int(n_cells)
        self.train_rows = int(train_rows)
        self.seed = seed

    # -- centroids -------------------------------------------------------------
    def _centroids_path(self) -> Path:
        return self.root / "_centroids.npy"

    def centroids(self) -> np.ndarray | None:
        """Effective centroids for the CURRENT chain: every full
        segment snapshots the centroids its cells were assigned with
        into its own dir, so centroids travel with the chain and the
        ``_SEGMENT.json`` marker stays the single atomic commit point —
        ``compact(retrain=True)`` can never leave new centroids paired
        with an old chain (or vice versa) across a crash. Root
        ``_centroids.npy`` is the first-build value and the fallback
        for pre-retrain vintages."""
        live = self._live_segments()
        if live and live[0].get("full"):
            p = Path(live[0]["dir"]) / "_centroids.npy"
            if p.exists():
                return np.load(p)
        p = self._centroids_path()
        return np.load(p) if p.exists() else None

    @staticmethod
    def _snapshot_centroids(seg_dir: Path, cent: np.ndarray) -> None:
        tmp = seg_dir / f"._centroids.{uuid.uuid4().hex[:8]}.npy.tmp"
        with open(tmp, "wb") as f:
            np.save(f, cent)
        os.replace(tmp, seg_dir / "_centroids.npy")

    def _ensure_centroids(self, files: list[str]) -> np.ndarray | None:
        cent = self.centroids()
        if cent is not None:
            return cent  # chain-resolved (newest full segment, or root)
        # first full build: train on a driver-side sample (the sample is
        # bounded by train_rows; ASSIGNMENT runs distributed)
        sample = []
        need = self.train_rows
        for f in files:
            t = pq.read_table(f, columns=[self.vec_col, INTERNAL_DELETED])
            t = t.filter(pa.compute.invert(t[INTERNAL_DELETED]))
            if t.num_rows == 0:
                continue
            vecs = t[self.vec_col].to_pylist()[:need]
            sample.extend(vecs)
            need -= len(vecs)
            if need <= 0:
                break
        if not sample:
            return None
        cent = train_ivf_centroids(np.asarray(sample, dtype=np.float32),
                                   self.n_cells, seed=self.seed)
        tmp = self.root / f"._centroids.{uuid.uuid4().hex[:8]}.npy.tmp"
        with open(tmp, "wb") as f:  # np.save(path) would append ".npy"
            np.save(f, cent)
        os.replace(tmp, self._centroids_path())
        return cent

    # -- segment construction ----------------------------------------------------
    def _signed_ds(self, new_files: list[str], old_files: list[str],
                   cent_ref):
        """Signed (key, vec, op, cell) rows over LIVE rows of BOTH file
        sets in one read; op (+1 new / −1 old) derives per-row from the
        block's source path, cell = nearest centroid (row-local). One
        read instead of a two-branch ``union`` — UnionOperator feeding
        the cell shuffle can livelock Ray's streaming executor at
        large-segment scale (see _LsmSegmentIndex)."""
        import ray
        import ray.data as rd

        key, vec_col = self.key_col, self.vec_col
        assert not (set(new_files) & set(old_files))  # sign by path
        signs = {f: 1 for f in new_files}
        signs.update({f: -1 for f in old_files})

        def assign(df: pd.DataFrame) -> pd.DataFrame:
            op_rows = df["path"].map(signs).astype("int8")
            df = df[~df[INTERNAL_DELETED].astype(bool)]
            op_rows = op_rows[df.index]
            if not len(df):
                return pd.DataFrame({
                    "key": pd.Series(dtype="object"),
                    "vec": pd.Series(dtype="object"),
                    "op": pd.Series(dtype="int8"),
                    "cell": pd.Series(dtype="int32")})
            cent = ray.get(cent_ref)
            m = _normalize(np.stack(df[vec_col].to_numpy())
                           .astype(np.float32))
            return pd.DataFrame({
                "key": df[key].to_numpy(),
                "vec": list(df[vec_col].to_numpy()),
                "op": op_rows.to_numpy(),
                "cell": (m @ cent.T).argmax(axis=1).astype(np.int32)})

        ds = rd.read_parquet(list(signs), columns=[key, vec_col,
                                                   INTERNAL_DELETED],
                             include_paths=True)
        return ds.map_batches(assign, batch_format="pandas")

    def _write_segment(self, cid: int, new_files: list[str],
                       old_files: list[str], full: bool) -> dict:
        import ray
        import ray.data as rd

        seg_dir = self.root / (f"seg-{cid:06d}-full" if full
                               else f"seg-{cid:06d}")
        seg_dir.mkdir(parents=True, exist_ok=True)
        segs = str(seg_dir)
        cent = self._ensure_centroids(new_files or old_files)
        n_vecs_delta, rows_scanned = 0, 0
        if cent is not None and (new_files or old_files):
            cent_ref = ray.put(cent)

            def write_cell(g: pd.DataFrame) -> pd.DataFrame:
                c = int(g["cell"].iloc[0])
                # within a segment -1 sorts before +1 per key, so an
                # in-place update resolves to its new vector
                g = g.sort_values(["key", "op"], kind="stable") \
                    .drop(columns=["cell"])
                d = Path(segs) / f"c={c:05d}"
                d.mkdir(parents=True, exist_ok=True)
                tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
                pq.write_table(pa.Table.from_pandas(
                    g, preserve_index=False), tmp)
                os.replace(tmp, d / "part.parquet")
                (d / "_SUCCESS").touch()
                return pd.DataFrame({"cell": [c],
                                     "n": [int(g["op"].sum())],
                                     "rows": [len(g)]})

            ds = self._signed_ds(new_files, old_files, cent_ref)
            meta = ds.groupby("cell").map_groups(
                write_cell, batch_format="pandas").to_pandas()
            if len(meta):
                n_vecs_delta = int(meta["n"].sum())
                rows_scanned = int(meta["rows"].sum())
        if full and cent is not None:
            # full segments carry the centroids their cells were
            # assigned with (see centroids()); written before the
            # marker so the marker stays the atomic commit point
            self._snapshot_centroids(seg_dir, cent)
        marker = {"cid": int(cid), "full": bool(full),
                  "n_vecs_delta": n_vecs_delta,
                  "rows_scanned": rows_scanned}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        return marker

    # -- reads ----------------------------------------------------------------
    def stats(self) -> dict:
        live = self._live_segments()
        cent = self.centroids()
        return {"n_vecs": sum(s["n_vecs_delta"] for s in live),
                "segments": len(live),
                "n_cells": len(cent) if cent is not None
                else self.n_cells}

    def _resolved_cell(self, cell: int) -> pd.DataFrame | None:
        """Live (key, vec) rows of one cell: per-key last op wins across
        segments in chain order (a cell-crossing update contributes its
        -1 here and its +1 in the destination cell)."""
        parts = []
        for rank, seg in enumerate(self._live_segments()):
            d = Path(seg["dir"]) / f"c={cell:05d}"
            if not (d / "_SUCCESS").exists():
                continue
            keys, op, mat = _read_cell_file(d / "part.parquet")
            if len(keys):
                parts.append((rank, keys, op, mat))
        res = _resolve_cell_parts(parts)
        if res is None:
            return None
        keys, mat = res
        return pd.DataFrame({"key": keys, "vec": list(mat)})

    def _cell_plan(self) -> dict[int, list[tuple[int, str]]]:
        """cell → [(chain rank, cell file)] over live segments."""
        plan: dict[int, list[tuple[int, str]]] = {}
        for rank, seg in enumerate(self._live_segments()):
            for d in Path(seg["dir"]).glob("c=*"):
                if (d / "_SUCCESS").exists():
                    plan.setdefault(int(d.name.split("=")[1]), []) \
                        .append((rank, str(d / "part.parquet")))
        return plan

    def probe_kernel(self, threshold: float = 0.9,
                     nprobe: int | None = None) -> _VecProbeKernel:
        """Freeze the current segment chain into a picklable cosine
        near-dup probe. ``nprobe=None`` probes every cell (exact)."""
        return _VecProbeKernel(self._cell_plan(), self.centroids(),
                               threshold, nprobe)

    def admission_filter(self, threshold: float = 0.9,
                         nprobe: int | None = None,
                         op_col: str = "op",
                         delete_ops: tuple = ("delete",),
                         rejects_dir: str | None = None,
                         epoch: int | None = None):
        """Distributed ingest-time EMBEDDING dedup gate: a
        ``map_batches`` callable (pyarrow batches) dropping events
        whose vector cosine-matches a live vector under a different
        key, judged against the index as frozen NOW. The embedding
        twin of ``LakeMinHashIndex.admission_filter`` — same
        semantics matrix (self-updates/deletes/null vectors pass,
        same-epoch dups both admit), same rejects provenance
        side-log. Compose per epoch via ``commit_epoch_admitted``."""
        from chomper_ray.state.dupindex import _AdmissionFilter
        return _AdmissionFilter(self.probe_kernel(threshold, nprobe),
                                self.key_col, self.vec_col, op_col,
                                delete_ops, rejects_dir=rejects_dir,
                                epoch=epoch)

    def near_vecs(self, vecs, threshold: float = 0.9,
                  nprobe: int | None = None) -> pd.DataFrame:
        """Live vectors cosine-matching each query vector ≥
        ``threshold``: (query, key, sim), ``query`` = position in
        ``vecs``. Driver-side file reads of only the probed cells —
        the ingest-time admission check."""
        kernel = self.probe_kernel(threshold, nprobe)
        out_q, out_k, out_s = [], [], []
        for qi, found in enumerate(kernel.matches(list(vecs))):
            for k, sim in found.items():
                out_q.append(qi)
                out_k.append(k)
                out_s.append(sim)
        return pd.DataFrame({"query": pd.array(out_q, dtype="int64"),
                             "key": out_k,
                             "sim": pd.array(out_s, dtype="float64")}) \
            .sort_values(["query", "key"], kind="stable") \
            .reset_index(drop=True)

    def search(self, queries: np.ndarray, k: int = 10,
               nprobe: int | None = None,
               per_query_probe: bool = False) -> pd.DataFrame:
        """Cosine top-k per query over the maintained index. Probes the
        ``nprobe`` nearest cells (union across queries, the same
        candidate contract as ``ivf_search``); one Ray task per probed
        cell resolves its live vectors and returns local top-k, the
        driver folds cells×queries×k rows. ``nprobe=None`` probes every
        cell — exhaustive, exactly brute-force over the live state.
        Scores are float64 for SQL-oracle parity.

        ``per_query_probe=True`` restricts each query's candidates to
        its OWN ``nprobe`` nearest cells (a cell task scores only the
        queries that probed it) — what a BATCH caller needs for
        per-query parity with N single-query calls; the default union
        semantics would hand every query the whole batch's cells and
        silently improve its recall. No-op when ``nprobe=None``."""
        import ray
        import ray.data as rd

        cent = self.centroids()
        if cent is None:
            return pd.DataFrame({"qid": pd.Series(dtype="int64"),
                                 "key": pd.Series(dtype="object"),
                                 "score": pd.Series(dtype="float64")})
        q = np.asarray(queries, dtype=np.float64)
        qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True),
                            1e-12)
        cell_qids = None  # cell -> array of qids probing it (or None=all)
        if nprobe is None or nprobe >= len(cent):
            cells = np.arange(len(cent))
        else:
            probe = np.argsort(-(qn.astype(np.float32) @ cent.T),
                               axis=1)[:, :nprobe]
            cells = np.unique(probe)
            if per_query_probe:
                cell_qids = {int(c): np.flatnonzero(
                                 (probe == c).any(axis=1))
                             for c in cells}
        live = self._live_segments()
        seg_dirs = [s["dir"] for s in live]
        qref = ray.put(qn)
        cq_ref = ray.put(cell_qids)
        kk = int(k)

        def score_cell(batch: pa.Table) -> pa.Table:
            out_q, out_key, out_s = [], [], []
            qm = ray.get(qref)
            cq = ray.get(cq_ref)
            for cell in batch["cell"].to_pylist():
                parts = []
                for rank, d in enumerate(seg_dirs):
                    p = Path(d) / f"c={int(cell):05d}"
                    if not (p / "_SUCCESS").exists():
                        continue
                    ks, op, mat = _read_cell_file(p / "part.parquet")
                    if len(ks):
                        parts.append((rank, ks, op, mat))
                res = _resolve_cell_parts(parts)
                if res is None:
                    continue
                keys, m = res
                m = m.astype(np.float64)
                m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                                1e-12)
                qids = np.arange(qm.shape[0]) if cq is None \
                    else cq[int(cell)]
                if not len(qids):
                    continue
                sc = qm[qids] @ m.T               # (nq_cell, n_cell_vecs)
                top = min(kk, sc.shape[1])
                idx = np.argpartition(-sc, top - 1, axis=1)[:, :top]
                for row, qi in enumerate(qids):
                    out_q.extend([int(qi)] * top)
                    out_key.extend(keys[idx[row]])
                    out_s.extend(sc[row, idx[row]])
            return pa.table({
                "qid": pa.array(out_q, type=pa.int64()),
                "key": pa.array(out_key),
                "score": pa.array(out_s, type=pa.float64())})

        import ray.data as rd
        folded = (rd.from_arrow(pa.table({"cell": pa.array(
                      cells.astype(np.int32))}))
                  .repartition(len(cells))
                  .map_batches(score_cell, batch_format="pyarrow")
                  .to_pandas())  # ≤ cells×nq×k rows — bounded
        if not len(folded):
            return pd.DataFrame({"qid": pd.Series(dtype="int64"),
                                 "key": pd.Series(dtype="object"),
                                 "score": pd.Series(dtype="float64")})
        folded = folded.sort_values(
            ["qid", "score", "key"], ascending=[True, False, True],
            kind="stable")
        return folded.groupby("qid", sort=True).head(kk) \
            .reset_index(drop=True)

    # -- maintenance ----------------------------------------------------------
    def compact(self, retrain: bool = False, n_cells: int | None = None,
                train_rows: int | None = None) -> dict:
        """Fold all live segments into one full segment at the newest
        applied cid, then drop superseded segment dirs — bounded by the
        index size; run on the compaction cadence, not per commit.

        ``retrain=True`` additionally RE-CLUSTERS: new centroids are
        trained on a distributed per-cell sample of the resolved live
        vectors and every live vector is re-assigned — the answer to
        centroid drift (cells trained at first build skew as the
        corpus evolves; resolution stays exact regardless, but pruned
        nprobe-search recall and cell balance decay). Work is one Ray
        task per OLD cell (resolve + assign + write per-new-cell
        fragments) plus one per NEW cell (fold fragments into the cell
        file) — O(index) like any compaction, never driver-memory
        bound. ``n_cells`` optionally re-sizes the cell count (e.g.
        after the corpus grew 10×). The new centroids are snapshotted
        INSIDE the new full segment dir before its ``_SEGMENT.json``
        marker lands, so the swap is atomic with the chain: a crash
        anywhere leaves the old chain + old centroids readable, and a
        rerun restarts cleanly (a higher ``gen`` full segment at the
        same cid supersedes the previous fold)."""
        import shutil

        segs = self._segments()
        if not segs:
            return {"compacted": False}
        cid = segs[-1]["cid"]
        live = self._live_segments()
        if not retrain and len(live) == 1 and live[0].get("full"):
            return {"compacted": False}
        if retrain:
            return self._compact_retrain(cid, n_cells, train_rows)
        cent = self.centroids()
        n_vecs = 0
        seg_dir = self.root / f"seg-{cid:06d}-full"
        seg_dir.mkdir(parents=True, exist_ok=True)
        for cell in sorted(self._cell_plan()):
            res = self._resolved_cell(cell)
            if res is None or not len(res):
                continue
            res = res.sort_values("key", kind="stable")
            res["op"] = np.int8(1)
            d = seg_dir / f"c={cell:05d}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
            pq.write_table(pa.Table.from_pandas(
                res[["key", "vec", "op"]], preserve_index=False), tmp)
            os.replace(tmp, d / "part.parquet")
            (d / "_SUCCESS").touch()
            n_vecs += len(res)
        if cent is not None:
            self._snapshot_centroids(seg_dir, cent)
        marker = {"cid": int(cid), "full": True,
                  "n_vecs_delta": n_vecs, "rows_scanned": 0}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        for d in self.root.glob("seg-*"):
            if d != seg_dir:
                shutil.rmtree(d, ignore_errors=True)
        return {"compacted": True, "n_vecs": n_vecs}

    def _compact_retrain(self, cid: int, n_cells: int | None,
                         train_rows: int | None) -> dict:
        import shutil

        import ray
        import ray.data as rd

        plan = self._cell_plan()
        old_cells = sorted(plan)
        if not old_cells:
            return {"compacted": False}
        old_cent = self.centroids()
        new_k = int(n_cells or (len(old_cent) if old_cent is not None
                                else self.n_cells))
        gen = 1 + max((int(s.get("gen", 0)) for s in self._segments()
                       if s["cid"] == cid), default=0)
        seg_dir = self.root / f"seg-{cid:06d}-full-g{gen}"
        if seg_dir.exists():  # crashed prior attempt (no marker)
            shutil.rmtree(seg_dir, ignore_errors=True)
        seg_dir.mkdir(parents=True)
        segd = str(seg_dir)
        plan_ref = ray.put(plan)
        per_cell = max(1, -(-int(train_rows or self.train_rows)
                            // len(old_cells)))
        seed = self.seed

        def resolve(c: int, plan_l) -> tuple | None:
            parts = []
            for rank, f in plan_l.get(c, ()):
                keys, op, mat = _read_cell_file(f)
                if len(keys):
                    parts.append((rank, keys, op, mat))
            return _resolve_cell_parts(parts)

        def sample_cell(batch: pa.Table) -> pa.Table:
            plan_l = ray.get(plan_ref)
            out = []
            for c in batch["cell"].to_pylist():
                res = resolve(int(c), plan_l)
                if res is None:
                    continue
                _, mat = res
                rng = np.random.default_rng(seed ^ (int(c) << 16))
                idx = rng.choice(len(mat),
                                 size=min(per_cell, len(mat)),
                                 replace=False)
                out.append(mat[idx].astype(np.float32))
            m = np.vstack(out) if out else np.zeros((0, 1), np.float32)
            return pa.table({"vec": _mat_to_list_array(m)})

        cells_ds = rd.from_arrow(pa.table({
            "cell": pa.array(old_cells, type=pa.int32())})) \
            .repartition(len(old_cells))
        sample_t = cells_ds.map_batches(
            sample_cell, batch_format="pyarrow").to_arrow_refs()
        sample = np.vstack([
            np.asarray(t["vec"].combine_chunks().flatten()
                       .to_numpy(zero_copy_only=False))
            .reshape(t.num_rows, -1)
            for t in map(ray.get, sample_t) if t.num_rows] or
            [np.zeros((0, 1), np.float32)])
        if not len(sample):
            return {"compacted": False}
        cent = train_ivf_centroids(sample, new_k, seed=seed)
        cent_ref = ray.put(cent)

        def frag_cell(batch: pa.Table) -> pa.Table:
            plan_l = ray.get(plan_ref)
            cn = ray.get(cent_ref)
            out_c, out_n = [], []
            for c in batch["cell"].to_pylist():
                res = resolve(int(c), plan_l)
                if res is None:
                    continue
                keys, mat = res
                asg = (_normalize(mat.astype(np.float32)) @ cn.T) \
                    .argmax(axis=1)
                for nc in np.unique(asg):
                    sel = asg == nc
                    d = Path(segd) / f"c={int(nc):05d}"
                    d.mkdir(parents=True, exist_ok=True)
                    t = pa.table({
                        "key": pa.array(keys[sel].tolist()),
                        "vec": _mat_to_list_array(mat[sel]),
                        "op": pa.array(np.ones(int(sel.sum()),
                                               dtype=np.int8))})
                    tmp = d / f".frag.{uuid.uuid4().hex[:8]}.tmp"
                    pq.write_table(t, tmp)
                    os.replace(tmp, d / f"frag-{int(c):05d}.parquet")
                    out_c.append(int(nc))
                    out_n.append(int(sel.sum()))
            return pa.table({"cell": pa.array(out_c, type=pa.int32()),
                             "n": pa.array(out_n, type=pa.int64())})

        frag_meta = cells_ds.map_batches(
            frag_cell, batch_format="pyarrow").to_pandas()
        new_cells = sorted(frag_meta["cell"].unique().tolist())
        n_vecs = int(frag_meta["n"].sum())

        def fold_cell(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            done = []
            for nc in batch["cell"].to_pylist():
                d = Path(segd) / f"c={int(nc):05d}"
                frags = sorted(d.glob("frag-*.parquet"))
                if not frags:
                    continue
                t = pa.concat_tables([pq.read_table(f) for f in frags])
                t = t.take(pc.sort_indices(
                    t, sort_keys=[("key", "ascending")]))
                tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
                pq.write_table(t, tmp)
                os.replace(tmp, d / "part.parquet")
                (d / "_SUCCESS").touch()
                for f in frags:
                    f.unlink(missing_ok=True)
                done.append(int(nc))
            return pa.table({"cell": pa.array(done, type=pa.int32())})

        if new_cells:
            rd.from_arrow(pa.table({
                "cell": pa.array(new_cells, type=pa.int32())})) \
                .repartition(len(new_cells)) \
                .map_batches(fold_cell, batch_format="pyarrow") \
                .materialize()
        self._snapshot_centroids(seg_dir, cent)
        marker = {"cid": int(cid), "full": True, "gen": gen,
                  "n_vecs_delta": n_vecs, "rows_scanned": n_vecs}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        for d in self.root.glob("seg-*"):
            if d != seg_dir:
                shutil.rmtree(d, ignore_errors=True)
        self.n_cells = len(cent)
        return {"compacted": True, "retrained": True,
                "n_vecs": n_vecs, "n_cells": len(cent),
                "cells_used": len(new_cells)}


def commit_epoch_admitted(lake, idx: LakeANNIndex, ds, epoch: int, *,
                          threshold: float = 0.9,
                          nprobe: int | None = None,
                          op_col: str = "op",
                          delete_ops: tuple = ("delete",),
                          rejects_root: str | None = None,
                          schema_hint=None):
    """Embedding dedup-at-ingest for one epoch: freeze the ANN index's
    current segments into a cosine admission gate, map it over the
    epoch's event Dataset, commit, then fold the commit back into the
    index — so the NEXT epoch's gate sees everything this one
    admitted. The vector twin of ``dupindex.run_cdc_admitted``'s
    per-epoch body, shaped for vector lakes that ingest via
    ``commit_epoch`` rather than the binlog loop (the caller owns
    epoch iteration; see the ``cdc_vec_dedup_ingest`` driver query).

    Exactly-once like any ``commit_epoch``: replaying a committed
    epoch skips the commit (the gate still runs, its output is
    discarded); ``idx.refresh()`` is idempotent-from-anywhere, so a
    crash between commit and refresh catches up on re-entry.

    ``nprobe=None`` probes every cell — the gate is then EXACT cosine
    admission over the live state (what the SQL oracle verifies);
    production sets ``nprobe`` and accepts standard IVF recall.

    ``rejects_root`` enables the per-epoch rejected-event provenance
    parquet under ``rejects_root/epoch=<N>/`` (read back with
    ``dupindex.read_rejects``), cleaned here before the gate runs so
    replaying an uncommitted epoch never double-logs.
    """
    import shutil as _sh

    rej = None
    if rejects_root is not None:
        rej = Path(rejects_root) / f"epoch={epoch}"
        _sh.rmtree(rej, ignore_errors=True)
        rej = str(rej)
    gate = idx.admission_filter(threshold, nprobe, op_col=op_col,
                                delete_ops=delete_ops, rejects_dir=rej,
                                epoch=epoch)
    if schema_hint is None:
        # the gate only filters rows, so the post-gate schema IS the
        # input schema — resolve it from read metadata so commit_epoch
        # never runs its limit(1) schema probe (which would execute
        # the gate a second time and double-log its rejects)
        sch = ds.schema(fetch_if_missing=False)
        base = getattr(sch, "base_schema", None) if sch is not None \
            else None
        if isinstance(base, pa.Schema):
            schema_hint = base
    commit = lake.commit_epoch(ds.map_batches(gate,
                                              batch_format="pyarrow"),
                               epoch, schema_hint=schema_hint)
    idx.refresh()
    return commit
