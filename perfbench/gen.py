"""Seeded binlog generator for the benchmark, independent of the program's
own generator (``chomper_ray.sources.events.generate_change_stream``), so
a change there cannot move the benchmark's inputs.

Every page is assembled from parts (title, nav words, heading,
paragraphs, footer) wrapped in markup noise. The generator writes the
engine's input and, next to it, what the oracle needs to check the
engine's output:

    <dir>/log/epoch=NNNNNN/part-K.parquet   the binlog the engine reads
    <dir>/meta.parquet                      one row per event (no html)
    <dir>/text.parquet                      expected text per event seq
    <dir>/qtf.parquet                       (seq, query token, tf) rows
    <dir>/queries.json                      the query token vocabulary
    <dir>/_COMPLETE                         stamp, written last

The expected text is joined from the parts, not extracted from the html,
so it checks the extractor instead of repeating it. Inputs are cached by
seed and spec (``ensure_inputs``); a directory without a matching stamp
is rebuilt.

Run as ``python -m perfbench.gen SPEC_JSON SEED OUT_DIR`` to build one
input set in a child process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BASE_TS_US = 1_700_000_000_000_000
HOSTS = ["news.example.com", "blog.example.com", "shop.example.com",
         "docs.example.com", "wiki.example.com", "forum.example.com",
         "media.example.com", "data.example.com", "app.example.com",
         "maps.example.com", "mail.example.com", "cdn.example.com"]
LANGS = ["en", "de", "fr", "es", "it", "pt", "nl", "sv"]
_SYLLABLES = ["ka", "lo", "mi", "ne", "su", "ta", "ri", "vo", "de", "pa",
              "gu", "fe", "zo", "bi", "ro", "la", "te", "mu", "ki", "sa"]
VOCAB_SIZE = 3000
N_QUERY_TOKENS = 48


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's binlog.

    Epochs ``[0, base_epochs)`` hold ``base_events`` events each and
    cover every url once (so the base ends with about ``n_urls`` live
    urls) plus Zipf-skewed rewrites; epochs ``[base_epochs, epochs)``
    are tail epochs of ``tail_events`` events, mostly rewrites of hot
    keys, with a few new urls."""

    n_urls: int
    epochs: int
    base_epochs: int
    base_events: int
    tail_events: int
    evolution_epoch: int
    rows_per_file: int
    delete_frac: float = 0.05
    late_frac: float = 0.10
    late_window_s: int = 1500
    url_zipf: float = 1.2
    hot_zipf: float = 1.15
    tail_new_frac: float = 0.08

    def stamp(self, seed: int) -> str:
        return json.dumps({"seed": seed, "format": 1, **asdict(self)},
                          sort_keys=True)


def _vocab(rng: np.random.Generator) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        n = int(rng.integers(2, 5))
        w = "".join(_SYLLABLES[i] for i in rng.integers(0, len(_SYLLABLES), n))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _zipf_index(rng, a: float, n: int, size: int) -> np.ndarray:
    return (rng.zipf(a, size) - 1) % n


def _events(spec: Spec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-event metadata (no pages) for the whole log, in seq order."""
    nb = spec.base_epochs * spec.base_events
    # base: every url once + Zipf-skewed rewrites, shuffled together
    extra = max(0, nb - spec.n_urls)
    hot_order = rng.permutation(spec.n_urls)  # rank -> url index
    base_idx = np.concatenate([
        rng.permutation(spec.n_urls)[:nb],
        hot_order[_zipf_index(rng, spec.url_zipf, spec.n_urls, extra)]])
    rng.shuffle(base_idx)
    epoch = [np.repeat(np.arange(spec.base_epochs), spec.base_events)]
    idx = [base_idx]
    next_new = spec.n_urls
    for e in range(spec.base_epochs, spec.epochs):
        n = spec.tail_events
        t = hot_order[_zipf_index(rng, spec.hot_zipf, spec.n_urls, n)]
        new = rng.random(n) < spec.tail_new_frac
        t[new] = np.arange(next_new, next_new + int(new.sum()))
        next_new += int(new.sum())
        idx.append(t)
        epoch.append(np.full(n, e))
    url_idx = np.concatenate(idx).astype(np.int64)
    epoch = np.concatenate(epoch).astype(np.int64)
    n = len(url_idx)
    seq = np.arange(n, dtype=np.int64)
    ts = BASE_TS_US + seq * 1_000_000 + rng.integers(0, 500_000, n)
    late = rng.random(n) < spec.late_frac
    ts[late] -= rng.integers(1, spec.late_window_s, int(late.sum())) \
        * 1_000_000
    want_del = rng.random(n) < spec.delete_frac
    op = np.empty(n, dtype=object)
    seen: set[int] = set()
    for i in range(n):  # first touch of a url is its insert
        k = int(url_idx[i])
        if k not in seen:
            op[i] = "insert"
            seen.add(k)
        else:
            op[i] = "delete" if want_del[i] else "update"
    evolved = epoch >= spec.evolution_epoch
    return {
        "seq": seq, "epoch": epoch, "url_idx": url_idx, "op": op,
        "warc_ts": ts,
        "lang": np.array(LANGS)[rng.integers(0, len(LANGS), n)],
        "fetch_status": np.array([200, 200, 200, 301, 404, 500])[
            rng.integers(0, 6, n)].astype(np.int64),
        "extra_score": np.where(evolved, np.round(rng.random(n), 6), np.nan),
    }


def url_of(i: int) -> str:
    return f"https://{HOSTS[i % len(HOSTS)]}/p/{i // len(HOSTS)}"


class _PageMaker:
    """Builds (html, expected text) for one event from drawn parts."""

    def __init__(self, vocab: list[str], seed: int):
        self.vocab = vocab
        self.r = random.Random(seed)
        ranks = range(1, len(vocab) + 1)
        self.cum = list(itertools.accumulate(1.0 / (k + 2.0) for k in ranks))
        # svg path data: markup the extractor must drop with its tag
        self.icons = [" ".join(f"L{self.r.randrange(97)} {self.r.randrange(89)}"
                               for _ in range(30)) for _ in range(256)]

    def words(self, n: int) -> list[str]:
        return self.r.choices(self.vocab, cum_weights=self.cum, k=n)

    def page(self, seq: int, url: str, lang: str) -> tuple[bytes, str]:
        r = self.r
        h = r.getrandbits(62)
        hx = f"{h:016x}"
        w = self.words(8)
        title = f"{w[0]} {w[1]} at {url}"
        nav = w[2:6]
        heading = f"Entry {seq} {w[6]}"
        footer = f"archived copy {seq} {w[7]}"
        html_paras, text_paras = [], []
        for _ in range(r.randrange(2, 4)):
            pw = self.words(r.randrange(12, 26))
            hw, tw = list(pw), list(pw)
            kind = r.randrange(8)
            j = r.randrange(1, len(pw) - 1)
            if kind == 0:
                hw.insert(j, "&amp;")
                tw.insert(j, "&")
            elif kind == 1:
                hw[j] = f"&quot;{pw[j]}&quot;"
                tw[j] = f'"{pw[j]}"'
            elif kind == 2:
                hw[j] = f"&lt;{pw[j]}&gt;"
                tw[j] = f"<{pw[j]}>"
            elif kind == 3:
                hw[j] = f"{pw[j]}&#39;s"
                tw[j] = f"{pw[j]}'s"
            html_paras.append(" ".join(hw))
            text_paras.append(" ".join(tw))
        nav_html = "".join(f'<li><a href="/n/{i}">{x}</a></li>'
                           for i, x in enumerate(nav))
        body = "\n".join(f'<p class="t{h % 11}">{p}</p>' for p in html_paras)
        icon = self.icons[h % len(self.icons)]
        html = (
            f'<!DOCTYPE html>\n<html lang="{lang}"><head><meta charset="utf-8">'
            f'<meta name="viewport" content="width=device-width">'
            f"<title>{title}</title>\n"
            f"<style>.c{h % 97}{{margin:0 {h % 7}px}} .nav li{{display:inline;"
            f"padding:0 4px}} body{{font-family:sans-serif;color:#{hx[:6]}}}"
            f" .content p{{line-height:1.{h % 9};margin:0 0 8px}}"
            f" footer{{border-top:1px solid #ccc;font-size:small}}"
            f" #top{{background:#{hx[6:12]}}} .btn{{border-radius:{h % 6}px;"
            f"padding:4px 8px;background:linear-gradient(#fff,#{hx[:6]})}}"
            f" @media (max-width:600px){{.nav{{display:none}}"
            f" .content{{padding:0 {h % 12}px}}}}</style>\n"
            f'<script>window.__cfg={{"id":{seq},"h":"{hx}","ab":[{h % 13},'
            f'{h % 17},{h % 19}]}};function t{h % 89}(a){{return a*{h % 31}'
            f"+1}}</script></head>\n"
            f'<body class="p{h % 5}"><div id="top"><svg width="24" height="24"'
            f' viewBox="0 0 24 24"><path d="M{h % 24} 0 {icon} Z"/></svg>'
            f'<ul class="nav">{nav_html}</ul></div>\n<main><article>'
            f'<div class="share"><button class="btn" data-id="{hx}">'
            f"</button></div><h1>{heading}</h1>"
            f'<div class="content" data-track="{hx}{hx[::-1]}">\n{body}\n'
            f"</div></article></main>\n<!-- crawl {seq} {hx} -->\n"
            f'<footer><span class="f">{footer}</span></footer>'
            f'<script type="application/ld+json">{{"@type":"WebPage",'
            f'"url":"{url}","id":"{hx}","crumbs":["{hx[:4]}","{hx[4:8]}",'
            f'"{hx[8:12]}"],"rev":{h % 1000},"tags":[{icon[:120]!r}]}}</script>'
            f'<script async src="/static/app.{hx[:8]}.js"></script>'
            f"</body></html>")
        text = "\n".join([title, *nav, heading, *text_paras, footer])
        return html.encode(), text


def generate(spec: Spec, seed: int, out_dir: str | Path) -> Path:
    """Write one input set under ``out_dir`` (which must not exist)."""
    out = Path(out_dir)
    log = out / "log"
    log.mkdir(parents=True)
    rng = np.random.default_rng([seed, 0x5EED])
    vocab = _vocab(rng)
    qtok = [vocab[i] for i in sorted(rng.choice(
        np.arange(20, 260), N_QUERY_TOKENS, replace=False))]
    qpos = {t: i for i, t in enumerate(qtok)}
    ev = _events(spec, rng)
    maker = _PageMaker(vocab, int(rng.integers(2**62)))
    n = len(ev["seq"])
    urls = np.array([url_of(int(i)) for i in ev["url_idx"]], dtype=object)
    n_chars = np.zeros(n, dtype=np.int64)
    dl = np.zeros(n, dtype=np.int64)
    text_seq, texts = [], []
    q_seq, q_tok, q_tf = [], [], []
    for e in range(spec.epochs):
        sel = np.nonzero(ev["epoch"] == e)[0]
        edir = log / f"epoch={e:06d}"
        edir.mkdir()
        evolved = e >= spec.evolution_epoch
        for fi, lo in enumerate(range(0, len(sel), spec.rows_per_file)):
            idx = sel[lo:lo + spec.rows_per_file]
            html = []
            for i in idx:
                if ev["op"][i] == "delete":
                    html.append(None)
                    continue
                page, text = maker.page(int(i), urls[i], ev["lang"][i])
                html.append(page)
                toks = text.split(" ")
                n_chars[i] = len(text)
                dl[i] = len(toks)
                text_seq.append(int(i))
                texts.append(text)
                counts: dict[int, int] = {}
                for t in toks:
                    q = qpos.get(t)
                    if q is not None:
                        counts[q] = counts.get(q, 0) + 1
                for q, tf in counts.items():
                    q_seq.append(int(i))
                    q_tok.append(q)
                    q_tf.append(tf)
            cols = {
                "op": pa.array(ev["op"][idx].tolist(), type=pa.string()),
                "epoch": pa.array(ev["epoch"][idx], type=pa.int64()),
                "seq": pa.array(ev["seq"][idx], type=pa.int64()),
                "url": pa.array(urls[idx].tolist(), type=pa.string()),
                "warc_ts": pa.array(ev["warc_ts"][idx],
                                    type=pa.timestamp("us")),
                "html": pa.array(html, type=pa.binary()),
                "lang": pa.array(ev["lang"][idx].tolist(), type=pa.string()),
                # additive evolution: int32 widens to int64 and a new
                # nullable column appears at the evolution epoch
                "fetch_status": pa.array(
                    ev["fetch_status"][idx],
                    type=pa.int64() if evolved else pa.int32()),
            }
            if evolved:
                cols["extra_score"] = pa.array(ev["extra_score"][idx],
                                               type=pa.float64())
            pq.write_table(pa.table(cols), edir / f"part-{fi:04d}.parquet")
    pq.write_table(pa.table({
        "seq": ev["seq"], "epoch": ev["epoch"],
        "url": pa.array(urls.tolist(), type=pa.string()),
        "op": pa.array(ev["op"].tolist(), type=pa.string()),
        "warc_ts": ev["warc_ts"], "lang": ev["lang"].tolist(),
        "fetch_status": ev["fetch_status"],
        "extra_score": pa.array(ev["extra_score"], from_pandas=True),
        "n_chars": n_chars, "dl": dl,
    }), out / "meta.parquet")
    pq.write_table(pa.table({"seq": pa.array(text_seq, type=pa.int64()),
                             "text": pa.array(texts, type=pa.string())}),
                   out / "text.parquet")
    pq.write_table(pa.table({"seq": pa.array(q_seq, type=pa.int64()),
                             "q": pa.array(q_tok, type=pa.int32()),
                             "tf": pa.array(q_tf, type=pa.int64())}),
                   out / "qtf.parquet")
    (out / "queries.json").write_text(json.dumps(qtok))
    (out / "_COMPLETE").write_text(spec.stamp(seed))
    return out


def ensure_inputs(cache_root: Path, spec: Spec, seed: int) -> Path:
    """The cached input set for (spec, seed), generated in a child
    process on a miss so the generator's memory never counts towards
    the driver's peak RSS. Written to a private directory and renamed
    into place after its ``_COMPLETE`` stamp, so a reader never sees a
    partial set."""
    stamp = spec.stamp(seed)
    key = hashlib.sha256(stamp.encode()).hexdigest()[:16]
    final = cache_root / f"in-{key}"
    done = final / "_COMPLETE"
    if done.exists() and done.read_text() == stamp:
        return final
    cache_root.mkdir(parents=True, exist_ok=True)
    tmp = cache_root / f".tmp-{key}-{uuid.uuid4().hex[:8]}"
    try:
        subprocess.run(
            [sys.executable, "-m", "perfbench.gen",
             json.dumps(asdict(spec)), str(seed), str(tmp)],
            check=True, cwd=str(Path(__file__).resolve().parents[1]))
        if final.exists():  # stale or foreign set under the same key
            shutil.rmtree(final)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


if __name__ == "__main__":
    generate(Spec(**json.loads(sys.argv[1])), int(sys.argv[2]), sys.argv[3])
