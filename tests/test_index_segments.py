"""Text-index segments written from changed documents only
(state/index.py ``LakeTextIndex._write_pairs``): two map-only Ray Data
passes (per touched partition, then per token bucket) that drop every
doc live with the same text on both sides of its partition's diff.

- After every commit of a copy-on-write and a merge-on-read lake, the
  maintained index answers ``search``, ``bm25(k=None)`` and ``stats``
  as a from-scratch index of that commit does (a one-manifest branch of
  the lake, built by one full segment).
- A one-key text change writes postings for that doc only; a change of
  another column writes none.
- No ``Dataset.groupby`` anywhere in a refresh.
- A refresh whose second pass fails leaves no scratch and no marker, and
  its rerun writes the segment a clean run writes.
"""

from collections import Counter

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from chomper_ray.state.index import LakeTextIndex
from chomper_ray.state.lake import LakeTable

from tests.test_incindex import reference_postings, resolved_all


def ev(op, seq, url, ts, text, lang="en", **extra):
    return {"op": op, "seq": seq, "url": url,
            "warc_ts": pd.Timestamp(ts, unit="s"), "text": text,
            "lang": lang, **extra}


def commit(lake, rows, epoch):
    lake.commit_epoch(rd.from_arrow(pa.Table.from_pylist(rows)), epoch)


WORDS = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def text_of(i: int) -> str:
    return " ".join(WORDS[(i * k) % len(WORDS)] for k in range(1, 2 + i % 4))


EPOCHS = [
    # base: twelve docs, one with a null text
    [ev("insert", i, f"u{i}", 10, None if i == 5 else text_of(i))
     for i in range(12)],
    # lang-only update (text equal), a text update, a delete
    [ev("update", 100, "u1", 20, text_of(1), lang="de"),
     ev("update", 101, "u2", 20, "beta beta omega"),
     ev("delete", 102, "u3", 20, None)],
    # a late event that loses, re-insert after delete, null -> text
    [ev("update", 200, "u4", 5, "stale words never seen"),
     ev("insert", 201, "u3", 30, "gamma back again"),
     ev("update", 202, "u5", 30, "alpha from null")],
    # additive schema evolution: a new column from here on; a new doc
    # with a null text, a text update
    [ev("insert", 300, "u12", 40, None, score=1.5),
     ev("update", 301, "u6", 40, "eta eta eta", score=2.0)],
    # lang-only change under the evolved schema, a delete, a text equal
    # to another doc's
    [ev("update", 400, "u7", 50, text_of(7), lang="fr", score=0.5),
     ev("delete", 401, "u0", 50, None, score=None),
     ev("update", 402, "u8", 50, "beta beta omega", score=3.0)],
]
QUERIES = [[w] for w in WORDS] + [["omega"], ["never"], [""],
                                  ["alpha", "beta"], ["beta", "omega"],
                                  ["gamma", "back"], ["eta", "zeta", "x"]]


def make_lake(root, kind: str, num_partitions: int = 3) -> LakeTable:
    if kind == "mor":
        return LakeTable(root, key="url", num_partitions=num_partitions,
                         merge_on_read=True, collect_changes=False)
    return LakeTable(root, key="url", num_partitions=num_partitions)


def answers(idx: LakeTextIndex) -> dict:
    st = idx.stats()
    out = {"stats": (st["n_docs"], st["sum_dl"], st["avgdl"])}
    for q in QUERIES:
        key = " ".join(q)
        out[f"all:{key}"] = list(idx.search(q, mode="all"))
        out[f"any:{key}"] = list(idx.search(q, mode="any"))
        out[f"bm25:{key}"] = idx.bm25(q, k=None).to_dict("list")
    return out


def scratch_index(lake, tmp_path, tag) -> LakeTextIndex:
    """A from-scratch index of the lake's head: one full segment over a
    one-manifest branch."""
    fork = lake.branch(tmp_path / f"fork-{tag}")
    idx = LakeTextIndex(fork, tmp_path / f"fresh-{tag}", num_partitions=4)
    res = idx.refresh()
    assert [m["full"] for m in res["applied"]] == [True]
    return idx


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_every_commit_answers_like_a_scratch_index(tmp_path, kind):
    lake = make_lake(tmp_path / "lake", kind)
    idx = LakeTextIndex(lake, tmp_path / "idx", num_partitions=4)
    for i, rows in enumerate(EPOCHS):
        commit(lake, rows, i)
        if kind == "mor" and i == 3:
            lake.compact_deltas()  # a zero-delta segment mid-chain
        idx.refresh()
        if i == 2:
            idx.compact()  # later deltas land on a compacted base
        fresh = scratch_index(lake, tmp_path, f"{kind}-{i}")
        assert answers(idx) == answers(fresh), f"commit {i}"
        want = reference_postings(lake)
        pd.testing.assert_frame_equal(resolved_all(idx), want,
                                      check_dtype=False)


@pytest.mark.parametrize("kind", ["cow", "mor"])
def test_segment_holds_only_changed_docs(tmp_path, kind):
    lake = make_lake(tmp_path / "lake", kind, num_partitions=2)
    idx = LakeTextIndex(lake, tmp_path / "idx", num_partitions=4)
    commit(lake, [ev("insert", i, f"u{i}", 10, text_of(i))
                  for i in range(40)], 0)
    idx.refresh()

    commit(lake, [ev("update", 100, "u9", 20, "brand new new words")], 1)
    m = idx.refresh()["applied"][0]
    old_toks, new_toks = set(text_of(9).split(" ")), {"brand", "new",
                                                      "words"}
    assert m["postings"] == len(old_toks) + len(new_toks)
    assert (m["n_docs_delta"], m["sum_dl_delta"]) == \
        (0, 4 - len(text_of(9).split(" ")))
    seg = pd.concat([pq.read_table(f).to_pandas() for f in
                     (tmp_path / "idx" / "seg-000001").glob("t=*/*.parquet")])
    assert set(seg["doc"]) == {"u9"}
    assert Counter(seg["op"]) == {-1: len(old_toks), 1: len(new_toks)}

    commit(lake, [ev("update", 200, "u10", 30, text_of(10), lang="de")], 2)
    m = idx.refresh()["applied"][0]
    assert (m["postings"], m["n_docs_delta"], m["sum_dl_delta"]) == (0, 0, 0)
    assert m["rows_scanned"] >= 2  # the partition was read all the same
    assert not list((tmp_path / "idx" / "seg-000002").glob("t=*"))
    assert answers(idx) == answers(scratch_index(lake, tmp_path, kind))


def test_refresh_runs_no_groupby(tmp_path, monkeypatch):
    def no_groupby(*a, **kw):
        raise AssertionError("Dataset.groupby called")

    monkeypatch.setattr(rd.Dataset, "groupby", no_groupby)
    for kind in ("cow", "mor"):
        lake = make_lake(tmp_path / f"lake-{kind}", kind)
        idx = LakeTextIndex(lake, tmp_path / f"idx-{kind}",
                            num_partitions=4)
        for i, rows in enumerate(EPOCHS[:3]):
            commit(lake, rows, i)
            idx.refresh()
        assert idx.applied_commits() == [0, 1, 2]


def test_failed_second_pass_reruns_to_a_clean_segment(tmp_path):
    lake = make_lake(tmp_path / "lake", "cow")
    idx = LakeTextIndex(lake, tmp_path / "idx", num_partitions=4)
    clean = LakeTextIndex(lake, tmp_path / "clean", num_partitions=4)
    commit(lake, EPOCHS[0], 0)
    idx.refresh()
    clean.refresh()
    commit(lake, [ev("update", 100 + i, f"u{i}", 20, f"new text {i}")
                  for i in range(12)], 1)

    real = idx._split_postings

    def corrupt_one(pairs, scratch):
        marks = real(pairs, scratch)
        # pass 2 fails on the buckets this file holds
        victim = next(f for f in marks["file"] if f)
        with open(victim, "wb") as f:
            f.write(b"junk")
        # and a bucket writer killed mid-write left its temporary file
        dead = idx.root / "seg-000001" / "t=00000" / ".part.dead.parquet.tmp"
        dead.parent.mkdir(parents=True, exist_ok=True)
        dead.write_bytes(b"junk")
        return marks

    idx._split_postings = corrupt_one
    with pytest.raises(Exception):
        idx.refresh()
    del idx._split_postings
    assert idx.applied_commits() == [0]
    assert (idx.root / "seg-000001" / "t=00000").exists()
    assert not list(idx.root.glob("_scratch-*"))

    assert [m["cid"] for m in idx.refresh()["applied"]] == [1]
    clean.refresh()
    assert not list(idx.root.glob("_scratch-*"))

    def segment(root):
        d = root / "seg-000001"
        files = sorted(p.relative_to(d).as_posix() for p in d.rglob("*"))
        tables = {p.parent.name: pq.read_table(p)
                  for p in d.glob("t=*/part.parquet")}
        return files, tables, (d / "_SEGMENT.json").read_text()

    got, want = segment(idx.root), segment(clean.root)
    assert got[0] == want[0] and got[2] == want[2]
    assert got[1].keys() == want[1].keys()
    assert all(got[1][k].equals(want[1][k]) for k in want[1])
    assert answers(idx) == answers(clean)
