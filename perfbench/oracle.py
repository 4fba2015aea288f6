"""Expected lake state, computed from the generated events without the
program.

State is last-writer-wins per url by ``(warc_ts, seq)``. A delete leaves
a tombstone that keeps its version, so a late event with a smaller
version loses against it and cannot resurrect the url. Rows written
before the evolution epoch carry no ``extra_score`` (null). Texts come
from the generator's parts (``text.parquet``), never from the extractor.

Alongside the rows the oracle keeps, incrementally per applied epoch:
live postings of the query tokens (for boolean AND sets and BM25),
``sum(dl)`` over live docs, and per-domain (url host) live counts and
text-length sums, the aggregates the benchmark's materialized view keeps.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

K1, B = 1.2, 0.75


def domain_of(url: str) -> str:
    return url.split("/")[2]


class Oracle:
    def __init__(self, input_dir: Path):
        meta = pq.read_table(input_dir / "meta.parquet").to_pandas()
        self.url = meta["url"].tolist()
        self.deleted = (meta["op"] == "delete").to_numpy()
        self.ts = meta["warc_ts"].to_numpy()
        self.lang = meta["lang"].tolist()
        self.status = meta["fetch_status"].to_numpy()
        self.extra = meta["extra_score"].to_numpy()
        self.n_chars = meta["n_chars"].to_numpy()
        self.dl = meta["dl"].to_numpy()
        epochs = meta["epoch"].to_numpy()
        self.epochs = int(epochs.max()) + 1
        order = np.argsort(epochs, kind="stable")
        bounds = np.searchsorted(epochs[order], np.arange(self.epochs + 1))
        self._by_epoch = [order[bounds[e]:bounds[e + 1]]
                          for e in range(self.epochs)]
        texts = pq.read_table(input_dir / "text.parquet")
        self.text = dict(zip(texts["seq"].to_pylist(),
                             texts["text"].to_pylist()))
        qtf = pq.read_table(input_dir / "qtf.parquet").to_pandas()
        self.qtf: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for s, q, tf in zip(qtf["seq"].to_numpy(), qtf["q"].to_numpy(),
                            qtf["tf"].to_numpy()):
            self.qtf[int(s)].append((int(q), int(tf)))
        self.queries: list[str] = json.loads(
            (input_dir / "queries.json").read_text())
        self.winner: dict[str, int] = {}  # url -> seq (tombstones too)
        self.live: dict[str, int] = {}    # url -> seq of live rows
        self.postings = [dict() for _ in self.queries]  # q -> {url: seq}
        self.sum_dl = 0
        self.domains: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.applied = -1

    def urls_in(self, e: int) -> list[str]:
        """Distinct urls written by epoch ``e``, sorted."""
        return sorted({self.url[int(s)] for s in self._by_epoch[e]})

    # -- state --------------------------------------------------------------
    def apply_epoch(self, e: int) -> None:
        if e != self.applied + 1:
            raise ValueError(f"epoch {e} applied after {self.applied}")
        for s in self._by_epoch[e]:
            s = int(s)
            u = self.url[s]
            cur = self.winner.get(u)
            if cur is not None and (self.ts[cur], cur) > (self.ts[s], s):
                continue
            self.winner[u] = s
            if cur is not None and not self.deleted[cur]:
                self._drop(u, cur)
            if not self.deleted[s]:
                self._add(u, s)
        self.applied = e

    def _add(self, u: str, s: int) -> None:
        self.live[u] = s
        self.sum_dl += int(self.dl[s])
        d = self.domains[domain_of(u)]
        d[0] += 1
        d[1] += int(self.n_chars[s])
        for q, _ in self.qtf.get(s, ()):
            self.postings[q][u] = s

    def _drop(self, u: str, s: int) -> None:
        del self.live[u]
        self.sum_dl -= int(self.dl[s])
        d = self.domains[domain_of(u)]
        d[0] -= 1
        d[1] -= int(self.n_chars[s])
        for q, _ in self.qtf.get(s, ()):
            del self.postings[q][u]

    # -- expected answers -----------------------------------------------------
    def row(self, url: str) -> dict | None:
        s = self.live.get(url)
        if s is None:
            return None
        x = self.extra[s]
        return {"url": url, "warc_ts": int(self.ts[s]), "lang": self.lang[s],
                "fetch_status": int(self.status[s]), "text": self.text[s],
                "extra_score": None if np.isnan(x) else float(x)}

    def user_bytes(self) -> int:
        """Uncompressed bytes of the live rows: url, text and lang as
        UTF-8 plus 8 bytes per non-null numeric column."""
        n = 0
        for u, s in self.live.items():
            n += len(u.encode()) + len(self.text[s].encode()) \
                + len(self.lang[s]) + 16
            if not np.isnan(self.extra[s]):
                n += 8
        return n

    def and_set(self, qs: list[int]) -> list[str]:
        docs = set(self.postings[qs[0]])
        for q in qs[1:]:
            docs &= set(self.postings[q])
        return sorted(docs)

    def bm25(self, qs: list[int], k: int = 10) \
            -> tuple[list[tuple[str, float]], dict[str, float]]:
        """Robertson/Sparck Jones BM25 with the +1-smoothed idf, over the
        live docs: the top ``k`` (ties by ascending url) and every
        matching doc's score."""
        n = len(self.live)
        avgdl = self.sum_dl / max(n, 1)
        scores: dict[str, float] = defaultdict(float)
        for q in dict.fromkeys(qs):
            post = self.postings[q]
            if not post:
                continue
            df = len(post)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            for u, s in post.items():
                tf = dict(self.qtf[s])[q]
                norm = K1 * (1.0 - B + B * float(self.dl[s]) / avgdl)
                scores[u] += idf * tf * (K1 + 1.0) / (tf + norm)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k], scores

    def domain_view(self) -> dict[str, tuple[int, int]]:
        return {d: (v[0], v[1]) for d, v in self.domains.items() if v[0] > 0}
