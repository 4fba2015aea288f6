"""Inverted text index over a document Dataset — the search-side
primitive a 100 TB corpus needs for targeted retrieval (keyword
filtering, quality-slice pulls, eval-leak forensics) without a scan.

Layout: distinct (token, doc) postings, hash-partitioned by token
into ``t=NNNNN/part.parquet`` files sorted by token, so a query for k
tokens reads AT MOST k bucket files (usually fewer — tokens sharing a
bucket share the read) and never touches document text; multi-token
AND/OR combine on doc arrays driver-side — bounded by the matched
postings, not the corpus.

Two builders write that layout:

- ``build_inverted_index`` (standalone, over any Dataset, optionally
  with positions for ``phrase_search``): one explode → per-block
  distinct → one co-locating ``groupby`` shuffle, plus a
  ``_LAYOUT.json``.
- ``LakeTextIndex`` (maintained over a ``LakeTable`` commit by commit):
  one signed LSM segment per commit, written by two map-only passes
  that exchange postings through scratch files — one task per touched
  lake partition, then one per token bucket — from only the docs whose
  text changed. Its reads take a token's rows from each bucket file
  by a filtered Parquet read.
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

from chomper_ray.stages.merge import stable_bucket
from chomper_ray.state.fs import fs_parquet_writer, fs_read_table


def build_inverted_index(ds, root: str | Path, col: str = "text",
                         id_col: str = "doc_id", sep: str = " ",
                         num_partitions: int = 64,
                         positions: bool = False) -> dict:
    """Build the index: returns ``{"files": n, "postings": n}``.
    ``positions=True`` additionally stores each posting's 0-based token
    positions (list<int64>) — required by ``phrase_search``, ~2× the
    posting payload otherwise unused."""
    import polars as pl

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    roots = str(root)

    def postings(df: pd.DataFrame) -> pd.DataFrame:
        base = pl.DataFrame({
            "d": pl.Series(df[id_col].to_numpy()),
            "w": pl.Series(pd.Series(df[col]).fillna("")
                           .astype(str).tolist()).str.split(sep),
        }).with_columns(pl.col("w").list.len().alias("dl"))
        ex = base.with_columns(
            pl.int_ranges(0, pl.col("w").list.len()).alias("p")) \
            .explode(["w", "p"])
        if positions:
            g = ex.group_by(["d", "w", "dl"]).agg(
                pl.len().alias("len"),
                pl.col("p").sort().alias("pos")).to_pandas()
        else:
            g = ex.group_by(["d", "w", "dl"]).len().to_pandas()
        out = pd.DataFrame({"token": g["w"],
                            "doc_id": g["d"].astype("int64"),
                            "tf": g["len"].astype("int64"),
                            "dl": g["dl"].astype("int64")})
        if positions:
            out["pos"] = g["pos"]
        out["_tb"] = stable_bucket(out["token"].to_numpy(),
                                   num_partitions).astype("int32")
        return out

    def doc_stats(df: pd.DataFrame) -> pd.DataFrame:
        import polars as _pl

        dl = _pl.Series(pd.Series(df[col]).fillna("").astype(str)
                        .tolist()).str.split(sep).list.len()
        return pd.DataFrame({"n": [len(df)], "sum_dl": [int(dl.sum())]})

    stats_df = ds.map_batches(doc_stats, batch_format="pandas") \
        .to_pandas()  # one row per block — metadata only
    n_docs = int(stats_df["n"].sum())
    sum_dl = int(stats_df["sum_dl"].sum())

    def write_bucket(g: pd.DataFrame) -> pd.DataFrame:
        pid = int(g["_tb"].iloc[0])
        g = g.drop(columns=["_tb"]) \
            .drop_duplicates(subset=["token", "doc_id"]) \
            .sort_values(["token", "doc_id"], kind="stable")
        d = Path(roots) / f"t={pid:05d}"
        d.mkdir(parents=True, exist_ok=True)
        tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
        pq.write_table(pa.Table.from_pandas(g, preserve_index=False), tmp)
        os.replace(tmp, d / "part.parquet")
        (d / "_SUCCESS").touch()
        return pd.DataFrame({"pid": [pid], "postings": [len(g)]})

    stats = (ds.map_batches(postings, batch_format="pandas")
             .groupby("_tb").map_groups(write_bucket,
                                        batch_format="pandas")
             .to_pandas())
    tmp = root / f"._LAYOUT.{uuid.uuid4().hex[:8]}.tmp"
    tmp.write_text(json.dumps({"num_partitions": num_partitions,
                               "sep": sep, "n_docs": n_docs,
                               "avgdl": sum_dl / max(n_docs, 1),
                               "positions": bool(positions)}))
    os.replace(tmp, root / "_LAYOUT.json")
    return {"files": len(stats), "postings": int(stats["postings"].sum())}


def _token_postings(root: Path, n: int, token: str,
                    full: bool = False):
    pid = int(stable_bucket(np.array([token], dtype=object), n)[0])
    p = root / f"t={pid:05d}"
    if not (p / "_SUCCESS").exists():
        if full:
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64))
        return np.empty(0, dtype=np.int64)
    t = pq.read_table(p / "part.parquet").to_pandas()
    toks = t["token"].to_numpy()
    lo = np.searchsorted(toks, token, side="left")
    hi = np.searchsorted(toks, token, side="right")
    ids = t["doc_id"].to_numpy()[lo:hi].astype(np.int64)
    if not full:
        return ids
    return (ids, t["tf"].to_numpy()[lo:hi].astype(np.int64),
            t["dl"].to_numpy()[lo:hi].astype(np.int64))


def resolve_token_bucket(seg_dirs, pid: int, token: str | None = None):
    """Live postings of one token bucket resolved over ``seg_dirs``
    (LSM chain order): per-(token, doc) last op wins; -1 sorts before
    +1 inside a segment so an in-place doc update resolves to its new
    row. Module-level (ships to Ray tasks as a list of paths, no index
    object pickled) — the batched retrieval path scores each distinct
    token's bucket inside ``map_batches``."""
    parts = []
    for rank, sdir in enumerate(seg_dirs):
        d = Path(sdir) / f"t={pid:05d}"
        if not (d / "_SUCCESS").exists():
            continue
        t = fs_read_table(d / "part.parquet", filters=None
                          if token is None else [("token", "=", token)]) \
            .to_pandas()
        if len(t):
            parts.append(t.assign(_r=rank))
    if not parts:
        return None
    cat = pd.concat(parts, ignore_index=True)
    cat = cat.sort_values(["token", "doc", "_r", "op"], kind="stable")
    cat = cat.drop_duplicates(subset=["token", "doc"], keep="last")
    return cat[cat["op"] == 1][["token", "doc", "tf", "dl"]]


def search_index(root: str | Path, tokens, mode: str = "all") -> np.ndarray:
    """Doc ids whose text contains ``all`` (AND) or ``any`` (OR) of the
    query tokens. Reads at most one bucket file per distinct token
    (pure driver-side reads, no Ray job); the in-file posting slice is
    one ``searchsorted`` pair per token. Returns sorted int64 ids."""
    root = Path(root)
    lay = json.loads((root / "_LAYOUT.json").read_text())
    n = int(lay["num_partitions"])
    sets = [_token_postings(root, n, t) for t in tokens]
    if not sets:
        return np.empty(0, dtype=np.int64)
    if mode == "all":
        out = sets[0]
        for s in sets[1:]:
            out = np.intersect1d(out, s, assume_unique=True)
        return out
    if mode == "any":
        return np.unique(np.concatenate(sets))
    raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")


def bm25_search(root: str | Path, tokens, k: int = 10,
                k1: float = 1.2, b: float = 0.75,
                ndigits: int = 6) -> pd.DataFrame:
    """BM25-ranked retrieval over the index (Robertson/Sparck Jones
    idf, the standard `+1` smoothing): postings already carry ``tf``
    and ``dl``, so scoring k query tokens is ≤ k bucket-file reads and
    pure vectorized arithmetic over the MATCHED postings — never the
    corpus. Ties break by ascending doc_id (SQL ORDER BY parity)."""
    root = Path(root)
    lay = json.loads((root / "_LAYOUT.json").read_text())
    n_part = int(lay["num_partitions"])
    n_docs, avgdl = float(lay["n_docs"]), float(lay["avgdl"])
    ids_all, score_all = [], []
    for t in dict.fromkeys(tokens):
        ids, tf, dl = _token_postings(root, n_part, t, full=True)
        if not len(ids):
            continue
        df_ = float(len(ids))
        idf = np.log((n_docs - df_ + 0.5) / (df_ + 0.5) + 1.0)
        tf = tf.astype(np.float64)
        denom = tf + k1 * (1.0 - b + b * dl.astype(np.float64) / avgdl)
        ids_all.append(ids)
        score_all.append(idf * tf * (k1 + 1.0) / denom)
    if not ids_all:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "score": pd.Series(dtype="float64")})
    ids = np.concatenate(ids_all)
    sc = np.concatenate(score_all)
    uniq, inv = np.unique(ids, return_inverse=True)
    tot = np.zeros(len(uniq))
    np.add.at(tot, inv, sc)
    order = np.lexsort((uniq, -tot))[:k]
    return pd.DataFrame({"doc_id": uniq[order].astype("int64"),
                         "score": np.round(tot[order], ndigits)})


def phrase_search(root: str | Path, phrase: str,
                  sep: str = " ") -> np.ndarray:
    """Exact phrase query over a ``positions=True`` index: doc ids
    whose token stream contains the phrase's tokens CONSECUTIVELY.
    Reads ≤ one bucket file per distinct phrase token; adjacency is
    checked with one structured-dtype ``np.intersect1d`` per adjacent
    token pair over (doc, position) keys — no text is ever read."""
    root = Path(root)
    lay = json.loads((root / "_LAYOUT.json").read_text())
    if not lay.get("positions"):
        raise ValueError(
            "phrase_search needs an index built with positions=True")
    n = int(lay["num_partitions"])
    toks = [t for t in phrase.split(sep) if t != ""] or [""]
    dt = np.dtype([("d", "<i8"), ("p", "<i8")])

    def occ(token: str) -> np.ndarray:
        pid = int(stable_bucket(np.array([token], dtype=object), n)[0])
        f = root / f"t={pid:05d}" / "part.parquet"
        if not (root / f"t={pid:05d}" / "_SUCCESS").exists():
            return np.empty(0, dt)
        t = pq.read_table(f, columns=["token", "doc_id", "pos"]) \
            .to_pandas()
        t = t[t["token"] == token]
        if not len(t):
            return np.empty(0, dt)
        lens = t["pos"].map(len).to_numpy()
        out = np.empty(int(lens.sum()), dt)
        out["d"] = np.repeat(t["doc_id"].to_numpy(np.int64), lens)
        out["p"] = np.concatenate(
            [np.asarray(x, dtype=np.int64) for x in t["pos"]])
        return np.sort(out)

    cur = occ(toks[0])  # (doc, start position) candidates
    for i, t in enumerate(toks[1:], start=1):
        if not len(cur):
            break
        nxt = occ(t)
        shifted = cur.copy()
        shifted["p"] = shifted["p"] + i  # where token i must sit
        hit = np.intersect1d(shifted, nxt, assume_unique=True)
        hit = np.sort(hit)
        hit["p"] = hit["p"] - i  # back to phrase-start positions
        cur = hit
    return np.unique(cur["d"]) if len(cur) else np.empty(0, np.int64)


# ---------------------------------------------------------------------------
# Incremental index maintenance under CDC (LSM-style delta segments)
# ---------------------------------------------------------------------------

class _LsmSegmentIndex:
    """Shared machinery for lake indexes maintained COMMIT BY COMMIT as
    LSM-style signed delta segments (``LakeTextIndex`` postings,
    ``LakeANNIndex`` vectors — state/annindex.py): segment bookkeeping
    under ``root/seg-<cid:06d>[-full]/`` with a ``_SEGMENT.json`` marker
    as the exactly-once commit point, plus the manifest-chain walk that
    turns each lake commit into one ``(new_file, old_file)`` pair per
    touched partition (either side None when absent). Subclasses
    implement ``_write_segment(cid, new_files, old_files, full)`` over
    the flattened sides, or override ``_write_pairs`` to work per
    partition — what a segment CONTAINS (postings, vectors, ...) is
    theirs; WHEN one is written is decided here.

    A writer that scans both sides reads them in ONE Ray Data read (or
    one task per pair), never a two-branch ``union``: UnionOperator
    feeding a bucket shuffle livelocked Ray's streaming executor at a
    48M-posting segment (union inqueue held ~6.6 GB while the sort's
    reservation starved the upstream maps; driver spun, workers
    idle)."""

    def __init__(self, lake, root):
        self.lake = lake
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _write_segment(self, cid: int, new_files: list[str],
                       old_files: list[str], full: bool) -> dict:
        raise NotImplementedError

    def _write_pairs(self, cid: int, pairs: list[tuple], full: bool) \
            -> dict:
        return self._write_segment(cid, [n for n, _ in pairs if n],
                                   [o for _, o in pairs if o], full)

    # -- segment bookkeeping ------------------------------------------------
    def _segments(self) -> list[dict]:
        """Applied segments in chain order; a ``-full`` variant of a cid
        supersedes (and hides) its delta twin, and a higher ``gen``
        full variant (a retraining compaction at the same cid —
        LakeANNIndex.compact(retrain=True)) supersedes a lower one."""
        segs = {}
        for m in self.root.glob("seg-*/_SEGMENT.json"):
            s = json.loads(m.read_text())
            s["dir"] = str(m.parent)
            cur = segs.get(s["cid"])
            if cur is None or \
                    (bool(s.get("full")), int(s.get("gen", 0))) > \
                    (bool(cur.get("full")), int(cur.get("gen", 0))):
                segs[s["cid"]] = s
        return [segs[c] for c in sorted(segs)]

    def applied_commits(self) -> list[int]:
        return [s["cid"] for s in self._segments()]

    def _live_segments(self) -> list[dict]:
        segs = self._segments()
        for i in range(len(segs) - 1, -1, -1):
            if segs[i].get("full"):
                return segs[i:]
        return segs

    # -- maintenance ----------------------------------------------------------
    def refresh(self) -> dict:
        """Apply every unapplied lake commit in chain order. Returns
        ``{"applied": [markers...], "skipped": [cids...]}``; idempotent.

        Merge-on-read lakes maintain WITHOUT compaction: a delta-bearing
        ingest commit writes a real segment from the lake's
        key-restricted old/new diff (``materialize_mor_commit_diff`` —
        −1 rows are the commit's keys resolved at the PREVIOUS manifest,
        +1 rows are one replay step over them), so the segment covers
        exactly the changed rows; a ``compact_deltas`` commit writes an
        empty segment (pure storage reorganization — its changes were
        applied commit-by-commit). Full builds / GC fallbacks at a
        delta-bearing manifest scan the RESOLVED state
        (``materialize_mor_resolved``)."""
        from chomper_ray.state.fs import require_local_lake_root

        require_local_lake_root(self.lake, type(self).__name__)
        import shutil
        import tempfile

        from chomper_ray.state.lake import (committed_epochs,
                                            is_compaction_manifest,
                                            load_manifest,
                                            manifest_has_deltas,
                                            materialize_mor_commit_diff,
                                            materialize_mor_resolved,
                                            mor_commit_delta_pids,
                                            mor_diff_inputs_exist)

        root = self.lake.root
        cids = committed_epochs(root)
        done = set(self.applied_commits())
        # an index compact() folds history into one full segment and
        # drops the superseded per-commit dirs — commits older than the
        # newest applied cid are covered by that fold, and re-applying
        # them would be dead work (their segments would rank BELOW the
        # full segment and never resolve)
        newest = max(done) if done else None
        applied, skipped = [], []
        prev_cid = None
        for cid in cids:
            if cid in done or (newest is not None and cid < newest):
                prev_cid = cid
                skipped.append(cid)
                continue
            man = load_manifest(root, cid)
            if man.get("truncated") or not man["partitions"]:
                applied.append(self._write_pairs(cid, [], full=True))
                prev_cid = cid
                continue

            def full_build(man=man, cid=cid):
                # whole-state build at this manifest; pending
                # merge-on-read deltas are resolved first
                scratch = None
                if manifest_has_deltas(man):
                    scratch = tempfile.mkdtemp(prefix="chomper_idx_full_")
                    files = materialize_mor_resolved(
                        root, man, self.lake._mor_kwargs(), scratch)
                else:
                    files = [str(root / v["file"])
                             for _, v in sorted(man["partitions"].items())
                             if v.get("file")]
                try:
                    return self._write_pairs(
                        cid, [(f, None) for f in files], full=True)
                finally:
                    if scratch is not None:
                        shutil.rmtree(scratch, ignore_errors=True)

            if prev_cid is None or prev_cid not in done and not applied \
                    and not self._segments():
                # first segment ever: full build from this manifest
                applied.append(full_build())
                prev_cid = cid
                continue
            if is_compaction_manifest(man):
                applied.append(self._write_pairs(cid, [], full=False))
                prev_cid = cid
                continue
            prev_man = load_manifest(root, prev_cid)
            mor_pids = mor_commit_delta_pids(man, cid)
            if mor_pids:
                if prev_man is None or not mor_diff_inputs_exist(
                        root, man, prev_man, cid):
                    applied.append(full_build())
                else:
                    scratch = tempfile.mkdtemp(prefix="chomper_idx_diff_")
                    try:
                        pairs = materialize_mor_commit_diff(
                            root, man, prev_man, cid,
                            self.lake._mor_kwargs(), scratch)
                        applied.append(self._write_pairs(
                            cid, pairs, full=False))
                    finally:
                        shutil.rmtree(scratch, ignore_errors=True)
                prev_cid = cid
                continue
            touched = sorted({int(ln["partition_id"])
                              for ln in man.get("lineage", [])})
            pairs, missing_old = [], prev_man is None
            for p in touched if prev_man else ():
                new = man["partitions"].get(str(p), {}).get("file")
                old = (prev_man["partitions"].get(str(p)) or {}).get("file")
                if old and not (root / old).exists():  # compacted away
                    missing_old = True
                    break
                if new or old:
                    pairs.append((str(root / new) if new else None,
                                  str(root / old) if old else None))
            if missing_old:
                applied.append(full_build())
            else:
                applied.append(self._write_pairs(cid, pairs, full=False))
            prev_cid = cid
        return {"applied": applied, "skipped": skipped}


_TB = "_tb"  # token-bucket column of the segment writer's scratch files


def _live_docs(path: str, key: str, col: str):
    """(doc key ``d``, text) of one lake file's live rows as a polars
    frame, null text as "" (it tokenizes like ""), and the rows read."""
    import polars as pl
    import pyarrow.compute as pc

    from chomper_ray.stages.merge import INTERNAL_DELETED

    t = fs_read_table(path, columns=[key, col, INTERNAL_DELETED])
    rows = t.num_rows
    t = t.filter(pc.invert(pc.fill_null(t[INTERNAL_DELETED], False)))
    return pl.DataFrame({
        "d": pl.from_arrow(t[key]),
        "text": pl.from_arrow(t[col]).cast(pl.String).fill_null("")}), rows


def _split_pair(new: str | None, old: str | None, key: str, col: str,
                sep: str, nb: int, out: str) -> tuple:
    """Signed postings of one touched partition, written to ``out``
    sorted by token bucket with one row group per bucket. A doc live
    with the same text on both sides is dropped before tokenizing: its
    +1 and −1 postings would resolve to the posting an earlier segment
    already holds. Returns ``(file or "", buckets, n_docs_delta,
    sum_dl_delta, rows_read)``."""
    import polars as pl

    sides, rows = {}, 0
    for op, path in ((1, new), (-1, old)):
        if path is not None:
            sides[op], n = _live_docs(path, key, col)
            rows += n
    if not sides:
        return "", [], 0, 0, 0
    if len(sides) == 2:
        same = sides[1].join(sides[-1], on="d", how="inner") \
            .filter(pl.col("text") == pl.col("text_right")).select("d")
        sides = {op: df.join(same, on="d", how="anti")
                 for op, df in sides.items()}
    docs = pl.concat([df.with_columns(op=pl.lit(op, pl.Int8))
                      for op, df in sides.items()]) \
        .with_columns(w=pl.col("text").str.split(sep)) \
        .with_columns(dl=pl.col("w").list.len().cast(pl.Int64))
    n_docs = int(docs["op"].cast(pl.Int64).sum())
    sum_dl = int((docs["op"].cast(pl.Int64) * docs["dl"]).sum())
    g = docs.select("d", "w", "dl", "op").explode("w") \
        .group_by(["d", "w", "dl", "op"]).len()
    if not len(g):
        return "", [], n_docs, sum_dl, rows
    tok = g["w"].to_arrow().cast(pa.string())
    doc = g["d"].to_arrow()
    if pa.types.is_large_string(doc.type) or \
            pa.types.is_string_view(doc.type):
        doc = doc.cast(pa.string())
    tb = stable_bucket(tok, nb)
    order = np.argsort(tb, kind="stable")
    tb = tb[order]
    tbl = pa.table({
        "token": tok, "doc": doc,
        "tf": g["len"].cast(pl.Int64).to_arrow(), "dl": g["dl"].to_arrow(),
        "op": g["op"].to_arrow(),
    }).take(pa.array(order)).append_column(_TB, pa.array(tb, pa.int32()))
    bounds = np.searchsorted(tb, np.arange(nb + 1))
    tbs = []
    with fs_parquet_writer(out, tbl.schema, compression="none") as w:
        for b in range(nb):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if hi > lo:
                w.write_table(tbl.slice(lo, hi - lo), row_group_size=hi - lo)
                tbs.append(b)
    return out, tbs, n_docs, sum_dl, rows


def _assemble_bucket(files: list[str], tb: int, seg_dir: str) -> int:
    """One token bucket of a segment from the scratch files holding it:
    distinct (token, doc, op) postings sorted by (token, doc, op), so an
    updated doc's −1 precedes its +1. Returns the postings written."""
    import pyarrow.compute as pc

    tbl = pa.concat_tables([fs_read_table(f, filters=[(_TB, "=", tb)])
                            for f in files]).drop_columns([_TB])
    cols = ["token", "doc", "op"]
    tbl = tbl.sort_by([(c, "ascending") for c in cols])
    if tbl.num_rows > 1:
        dup = np.ones(tbl.num_rows - 1, dtype=bool)
        for c in cols:
            a = tbl[c]
            dup &= pc.equal(a.slice(1), a.slice(0, tbl.num_rows - 1)) \
                .to_numpy(zero_copy_only=False)
        tbl = tbl.filter(pa.array(np.concatenate([[True], ~dup])))
    d = Path(seg_dir) / f"t={tb:05d}"
    d.mkdir(parents=True, exist_ok=True)
    tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
    pq.write_table(tbl, tmp)
    os.replace(tmp, d / "part.parquet")
    (d / "_SUCCESS").touch()
    return tbl.num_rows


class LakeTextIndex(_LsmSegmentIndex):
    """Inverted text index over a ``LakeTable``, maintained COMMIT BY
    COMMIT from each commit's touched partitions — the
    ``MaterializedAgg`` per-commit delta discipline (state/matview.py)
    applied to a non-additive structure via LSM-style segments.

    Postings are not self-maintainable in place: a doc update changes
    its whole token set, and folding that into token-bucketed base
    files would re-read/rewrite every touched token bucket — corpus-
    sized work for a one-partition commit. Instead each lake commit
    appends a DELTA SEGMENT: signed postings (op=+1 for a doc's new
    version, op=-1 for its previous one), token-bucketed and sorted
    exactly like the base. A doc live with the same text on both sides
    of its partition's diff gets no posting: postings depend only on
    (key, text, live), so its +1/−1 pair would resolve to the posting
    an earlier segment already holds. The commit's touched partitions
    are read once (``rows_scanned``, ∝ the commit's write
    amplification), but tokenizing and writing cost ∝ the docs whose
    text changed, never the corpus — there is no shuffle: one task per
    touched partition writes its postings to scratch a row group per
    token bucket, and one task per bucket assembles them. A query reads
    ≤ one bucket file per segment per token and resolves doc-level
    last-op-wins across segments (within a segment, an updated doc's -1
    sorts before its +1). ``compact()``
    folds all segments into a fresh full segment to re-bound read
    amplification — the classic LSM trade, chosen deliberately for the
    100-TB CDC regime where commits are small and queries read O(k)
    files either way.

    Storage: ``root/seg-<cid:06d>[-full]/t=NNNNN/part.parquet`` (+
    ``_SUCCESS`` per bucket, written tmp→rename), with a
    ``_SEGMENT.json`` marker written LAST as the segment's commit
    point; ``refresh()`` resumes from the newest marker and re-running
    is a no-op (same exactly-once contract as the lake). Doc-length
    stats for BM25 (n_docs, Σdl) ride each segment's marker as deltas.
    ``positions`` is intentionally unsupported here (phrase search
    wants a full rebuild); use ``build_inverted_index`` for that.
    """

    def __init__(self, lake, root, col: str = "text",
                 key_col: str | None = None, sep: str = " ",
                 num_partitions: int = 64):
        from chomper_ray.stages.merge import DEFAULT_KEY

        super().__init__(lake, root)
        self.col = col
        self.key_col = key_col or DEFAULT_KEY
        self.sep = sep
        self.num_partitions = int(num_partitions)

    def stats(self) -> dict:
        live = self._live_segments()
        n_docs = sum(s["n_docs_delta"] for s in live)
        sum_dl = sum(s["sum_dl_delta"] for s in live)
        return {"n_docs": n_docs, "sum_dl": sum_dl,
                "avgdl": sum_dl / max(n_docs, 1),
                "segments": len(live)}

    # -- segment construction -------------------------------------------------
    def _write_pairs(self, cid: int, pairs: list[tuple], full: bool) \
            -> dict:
        """One segment from the touched partitions' (new, old) file
        pairs, in two map-only Ray Data passes that exchange postings
        through scratch files (the lake's ``repartition_table`` idiom):
        ``_split_postings`` (one task per pair) then
        ``_assemble_buckets`` (one task per token bucket). The scratch
        dir is removed whether or not the passes succeed; a failed
        attempt's bucket dirs are removed by the next one, since no
        marker covers them."""
        import shutil

        name = f"seg-{cid:06d}-full" if full else f"seg-{cid:06d}"
        seg_dir = self.root / name
        scratch = self.root / f"_scratch-{name}"
        for d in (seg_dir, scratch):
            shutil.rmtree(d, ignore_errors=True)
        seg_dir.mkdir(parents=True)
        n_docs = sum_dl = rows = n_postings = 0
        try:
            if pairs:
                marks = self._split_postings(pairs, scratch)
                n_docs = int(marks["n_docs"].sum())
                sum_dl = int(marks["sum_dl"].sum())
                rows = int(marks["rows"].sum())
                n_postings = self._assemble_buckets(seg_dir, marks)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        marker = {"cid": int(cid), "full": bool(full),
                  "n_docs_delta": n_docs,
                  "sum_dl_delta": sum_dl,
                  "postings": n_postings,
                  "rows_scanned": rows}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        return marker

    def _split_postings(self, pairs: list[tuple], scratch: Path) \
            -> pd.DataFrame:
        """Pass 1: one task per (new, old) pair writes its signed
        postings to one scratch file, a row group per token bucket.
        Returns one row per pair: the ``file`` ("" when it wrote no
        posting), its buckets ``tbs`` and its ``n_docs``/``sum_dl``/
        ``rows`` (rows read) deltas."""
        import ray.data as rd

        key, col, sep, nb = self.key_col, self.col, self.sep, \
            self.num_partitions
        scratchs = str(scratch)

        def split(batch: pa.Table) -> pa.Table:
            out = [_split_pair(n or None, o or None, key, col, sep, nb,
                               f"{scratchs}/{uuid.uuid4().hex[:12]}.parquet")
                   for n, o in zip(batch["new"].to_pylist(),
                                   batch["old"].to_pylist())]
            return pa.table({
                "file": [o[0] for o in out],
                "tbs": pa.array([o[1] for o in out],
                                type=pa.list_(pa.int32())),
                "n_docs": pa.array([o[2] for o in out], type=pa.int64()),
                "sum_dl": pa.array([o[3] for o in out], type=pa.int64()),
                "rows": pa.array([o[4] for o in out], type=pa.int64())})

        return (rd.from_arrow(pa.table({
                    "new": [n or "" for n, _ in pairs],
                    "old": [o or "" for _, o in pairs]}))
                .repartition(len(pairs))
                .map_batches(split, batch_format="pyarrow")
                .to_pandas())  # one row per pair — paths and counts

    def _assemble_buckets(self, seg_dir: Path, marks: pd.DataFrame) -> int:
        """Pass 2: one task per token bucket reads that bucket's row
        groups from every scratch file holding it and writes
        ``t=NNNNN/part.parquet`` + ``_SUCCESS``. Returns the postings
        written."""
        import ray.data as rd

        files_of: dict[int, list[str]] = {}
        for f, tbs in zip(marks["file"], marks["tbs"]):
            for tb in tbs:
                files_of.setdefault(int(tb), []).append(f)
        if not files_of:
            return 0
        segs = str(seg_dir)

        def assemble(batch: pa.Table) -> pa.Table:
            tbs = batch[_TB].to_pylist()
            n = [_assemble_bucket(files_of[int(tb)], int(tb), segs)
                 for tb in tbs]
            return pa.table({_TB: pa.array(tbs, type=pa.int32()),
                             "postings": pa.array(n, type=pa.int64())})

        tbs = sorted(files_of)
        meta = (rd.from_arrow(pa.table({
                    _TB: pa.array(tbs, type=pa.int32())}))
                .repartition(len(tbs))
                .map_batches(assemble, batch_format="pyarrow")
                .to_pandas())
        return int(meta["postings"].sum())

    # -- maintenance ----------------------------------------------------------
    def compact(self) -> dict:
        """Fold all live segments into one full segment at the newest
        applied cid, then drop superseded segment dirs. Bounded by the
        index size (it rewrites every bucket once) — run it on the
        compaction cadence, not per commit."""
        import shutil

        segs = self._segments()
        if not segs:
            return {"compacted": False}
        cid = segs[-1]["cid"]
        live = self._live_segments()
        if len(live) == 1 and live[0].get("full"):
            return {"compacted": False}
        st = self.stats()
        seg_dir = self.root / f"seg-{cid:06d}-full"
        seg_dir.mkdir(parents=True, exist_ok=True)
        n_postings = 0
        for pid in range(self.num_partitions):
            res = self._resolved_bucket(pid)
            if res is None or not len(res):
                continue
            res = res.sort_values(["token", "doc"], kind="stable")
            res["op"] = np.int8(1)
            d = seg_dir / f"t={pid:05d}"
            d.mkdir(parents=True, exist_ok=True)
            tmp = d / f".part.{uuid.uuid4().hex[:8]}.parquet.tmp"
            pq.write_table(pa.Table.from_pandas(
                res[["token", "doc", "tf", "dl", "op"]],
                preserve_index=False), tmp)
            os.replace(tmp, d / "part.parquet")
            (d / "_SUCCESS").touch()
            n_postings += len(res)
        marker = {"cid": int(cid), "full": True,
                  "n_docs_delta": st["n_docs"],
                  "sum_dl_delta": st["sum_dl"],
                  "postings": n_postings, "rows_scanned": 0}
        tmp = seg_dir / f"._SEGMENT.{uuid.uuid4().hex[:8]}.tmp"
        tmp.write_text(json.dumps(marker))
        os.replace(tmp, seg_dir / "_SEGMENT.json")
        for s in segs:
            if s["dir"] != str(seg_dir):
                shutil.rmtree(s["dir"], ignore_errors=True)
        return {"compacted": True, "postings": n_postings}

    # -- reads ----------------------------------------------------------------
    def _resolved_bucket(self, pid: int, token: str | None = None):
        return resolve_token_bucket(
            [s["dir"] for s in self._live_segments()], pid, token)

    def _token_pid(self, token: str) -> int:
        return int(stable_bucket(np.array([token], dtype=object),
                                 self.num_partitions)[0])

    def postings(self, token: str) -> pd.DataFrame:
        """Live (token, doc, tf, dl) rows for one token — reads one
        bucket file per live segment, no Ray job."""
        res = self._resolved_bucket(self._token_pid(token), token)
        if res is None:
            return pd.DataFrame({
                "token": pd.Series(dtype="object"),
                "doc": pd.Series(dtype="object"),
                "tf": pd.Series(dtype="int64"),
                "dl": pd.Series(dtype="int64")})
        return res.reset_index(drop=True)

    def search(self, tokens, mode: str = "all") -> np.ndarray:
        """Doc keys containing ``all``/``any`` of the tokens (sorted)."""
        sets = [self.postings(t)["doc"].to_numpy() for t in tokens]
        if not sets:
            return np.empty(0, dtype=object)
        if mode == "all":
            out = sets[0]
            for s in sets[1:]:
                out = np.intersect1d(out, s, assume_unique=True)
            return out
        if mode == "any":
            return np.unique(np.concatenate(sets))
        raise ValueError(f"mode must be 'all' or 'any', got {mode!r}")

    def bm25(self, tokens, k: int | None = 10, k1: float = 1.2,
             b: float = 0.75, ndigits: int = 6) -> pd.DataFrame:
        """BM25 top-k over the maintained index (same formula as
        ``bm25_search``); ties break by ascending doc key. ``k=None``
        returns the FULL ranking of every doc containing ≥ 1 token —
        the postings walk already scores them all, so this costs no
        extra I/O (used by ``retrieval.hybrid_rrf`` for exact ranks)."""
        st = self.stats()
        n_docs, avgdl = float(st["n_docs"]), float(st["avgdl"])
        ids_all, score_all = [], []
        for t in dict.fromkeys(tokens):
            p = self.postings(t)
            if not len(p):
                continue
            df_ = float(len(p))
            idf = np.log((n_docs - df_ + 0.5) / (df_ + 0.5) + 1.0)
            tf = p["tf"].to_numpy().astype(np.float64)
            dl = p["dl"].to_numpy().astype(np.float64)
            denom = tf + k1 * (1.0 - b + b * dl / avgdl)
            ids_all.append(p["doc"].to_numpy())
            score_all.append(idf * tf * (k1 + 1.0) / denom)
        if not ids_all:
            return pd.DataFrame({"doc": pd.Series(dtype="object"),
                                 "score": pd.Series(dtype="float64")})
        ids = np.concatenate(ids_all)
        sc = np.concatenate(score_all)
        uniq, inv = np.unique(ids, return_inverse=True)
        tot = np.zeros(len(uniq))
        np.add.at(tot, inv, sc)
        order = np.lexsort((uniq, -tot))[:k]
        return pd.DataFrame({"doc": uniq[order],
                             "score": np.round(tot[order], ndigits)})
