"""Lake storage abstraction: every byte the lake commits or reads goes
through the helpers here, so one code path serves POSIX directories AND
object stores.

Two root flavors:

- ``str`` / ``pathlib.Path`` → the proven POSIX fast-path, byte-for-byte
  the pre-abstraction behavior: atomic publish = tmp + ``os.replace``,
  first-writer-wins = ``os.link`` create-exclusive.
- ``FsPath`` (a ``pyarrow.fs.FileSystem`` + key) → object-store-safe
  protocol: atomic publish = ONE whole-object put (atomic-by-key on
  S3/GCS — multipart completes atomically, readers never see partial
  objects), first-writer-wins = conditional put (put-if-absent). NO
  rename, NO link, NO append anywhere on this path — the test mock
  (``object_store_test_fs``) raises on them, so the suite proves the
  protocol never needs what object stores don't have.

Put-if-absent per backend:
- mock (tests): full bytes staged outside the key space, then linked
  into place create-exclusively — CONTENT-atomic CAS (a reader sees no
  object or the complete one, matching a real conditional PUT).
- real S3: conditional PUT with ``If-None-Match: *`` (generally
  available on S3 since late 2024; GCS has ``x-goog-if-generation-match:
  0``). pyarrow's S3FileSystem does not expose it, so a filesystem
  without a native ``put_if_absent`` handler REFUSES the commit path by
  default — a check-then-put would let a racing loser clobber the
  winner's manifest. A deployment that provably runs ONE runner per
  lake opts in with ``CHOMPER_SINGLE_RUNNER=1``; multi-runner S3 lakes
  plug a conditional-put handler (the mock shows the interface).

S3 listing note: the manifest-chain discovery (``committed_epochs``)
relies on list-after-put consistency, which S3 has provided strongly
since Dec 2020; no eventual-listing workaround is needed.

Reference ancestry: the reference stubbed S3 as a reader TODO
(readers.py:102-123); its sinks are single-box Postgres. Here the
exactly-once sink protocol itself is made object-store-expressible.
"""
from __future__ import annotations

import bisect
import fnmatch
import io
import json
import os
import shutil
import uuid
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

__all__ = [
    "FsPath", "resolve_root", "object_store_test_fs",
    "fs_mkdirs", "fs_exists", "fs_is_dir", "fs_names", "fs_glob",
    "fs_read_text",
    "fs_write_text_atomic", "fs_publish_json", "fs_put_json_if_absent",
    "fs_parquet_file", "fs_read_table", "fs_publish_table",
    "fs_parquet_writer",
    "fs_rmtree", "fs_rmdir_if_empty", "fs_unlink", "fs_read_bytes",
    "fs_publish_bytes",
    "fs_copy_file", "require_local_lake_root",
]


class FsPath:
    """A (pyarrow filesystem, key) pair with the small slice of the
    pathlib surface the lake uses. Deliberately does NOT implement
    ``__fspath__``: leaking one of these into ``os.*`` / ``open()``
    must fail loudly, not silently hit the local disk."""

    __slots__ = ("fs", "key")

    def __init__(self, fs, key: str):
        self.fs = fs
        self.key = str(key).rstrip("/")

    def __truediv__(self, other) -> "FsPath":
        return FsPath(self.fs, f"{self.key}/{other}")

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        return f"FsPath({self.key!r})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FsPath) and other.key == self.key
                and other.fs is self.fs)

    def __hash__(self) -> int:
        return hash(self.key)

    @property
    def name(self) -> str:
        return self.key.rsplit("/", 1)[-1]

    @property
    def stem(self) -> str:
        n = self.name
        return n.rsplit(".", 1)[0] if "." in n else n

    @property
    def parent(self) -> "FsPath":
        if "/" not in self.key:
            return FsPath(self.fs, "")
        return FsPath(self.fs, self.key.rsplit("/", 1)[0])

    def with_name(self, name: str) -> "FsPath":
        return self.parent / name

    # pathlib-flavored conveniences used by call sites ------------------
    def mkdir(self, parents: bool = True, exist_ok: bool = True) -> None:
        fs_mkdirs(self)

    def exists(self) -> bool:
        return fs_exists(self)

    def is_dir(self) -> bool:
        return fs_is_dir(self)

    def glob(self, pattern: str):
        return fs_glob(self, pattern)

    def read_text(self) -> str:
        return fs_read_text(self)

    def unlink(self, missing_ok: bool = False) -> None:
        fs_unlink(self, missing_ok=missing_ok)


def resolve_root(root, filesystem=None):
    """Normalize a lake root: local str/Path stays a ``pathlib.Path``
    (fast-path); an explicit ``filesystem`` or a URI root becomes an
    ``FsPath``. ``s3://`` / ``gs://`` URIs resolve through
    ``pyarrow.fs.FileSystem.from_uri`` (import-gated: no network in
    tests)."""
    if isinstance(root, FsPath):
        return root
    if filesystem is not None:
        return FsPath(filesystem, str(root))
    s = str(root)
    if s.startswith("mock://"):
        # test scheme: mock://<backing-dir> — an object-store-semantics
        # filesystem over that local dir, lake key fixed at "lake".
        # Lets the CLI drive the store protocol end-to-end in a sandbox
        # with no cloud credentials.
        return FsPath(object_store_test_fs(s[len("mock://"):]), "lake")
    if "://" in s:
        from pyarrow import fs as pafs

        fs, path = pafs.FileSystem.from_uri(s)
        return FsPath(fs, path)
    return Path(root)


# -- mock object store for tests ------------------------------------------

from pyarrow.fs import FileSystemHandler as _FileSystemHandler


class _ObjectStoreHandler(_FileSystemHandler):
    """pyarrow ``FileSystemHandler`` over a local directory that exposes
    ONLY object-store semantics: whole-object put/get, prefix listing,
    delete, native put-if-absent. ``move`` (rename) and append raise —
    any engine code path that needs them is a protocol bug on an object
    store, and the test suite will hit the raise."""

    def __init__(self, base: str):
        self.base = str(base)

    # identity / pickling --------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, _ObjectStoreHandler) and \
            other.base == self.base

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.base)

    def _abs(self, path: str) -> str:
        return os.path.join(self.base, path.lstrip("/"))

    def get_type_name(self) -> str:
        return f"mock-object-store({self.base})"

    def normalize_path(self, path: str) -> str:
        return path

    # info / listing -------------------------------------------------------
    def get_file_info(self, paths):
        from pyarrow.fs import FileInfo, FileType

        out = []
        for p in paths:
            a = self._abs(p)
            if os.path.isfile(a):
                st = os.stat(a)
                out.append(FileInfo(p, FileType.File, size=st.st_size,
                                    mtime_ns=st.st_mtime_ns))
            elif os.path.isdir(a):
                # object stores have no real directories; report a
                # prefix with children as Directory for pyarrow's sake
                out.append(FileInfo(p, FileType.Directory))
            else:
                out.append(FileInfo(p, FileType.NotFound))
        return out

    def get_file_info_selector(self, selector):
        from pyarrow.fs import FileInfo, FileType

        base = self._abs(selector.base_dir)
        if not os.path.isdir(base):
            if selector.allow_not_found:
                return []
            raise FileNotFoundError(selector.base_dir)
        out = []
        walker = os.walk(base) if selector.recursive else \
            [next(os.walk(base))]
        for dirpath, dirnames, filenames in walker:
            rel_dir = os.path.relpath(dirpath, self.base)
            for f in filenames:
                rel = f"{rel_dir}/{f}" if rel_dir != "." else f
                st = os.stat(os.path.join(dirpath, f))
                out.append(FileInfo(rel, FileType.File, size=st.st_size,
                                    mtime_ns=st.st_mtime_ns))
            if not selector.recursive:
                for d in dirnames:
                    rel = f"{rel_dir}/{d}" if rel_dir != "." else d
                    out.append(FileInfo(rel, FileType.Directory))
                break
        return out

    # mutation -------------------------------------------------------------
    def create_dir(self, path, recursive):
        # objects have no directories; creating a prefix is free. The
        # backing local dir is made lazily at put time.
        return None

    def delete_dir(self, path):
        shutil.rmtree(self._abs(path), ignore_errors=True)

    def delete_dir_contents(self, path, missing_dir_ok=False):
        a = self._abs(path)
        if not os.path.isdir(a):
            if missing_dir_ok:
                return
            raise FileNotFoundError(path)
        for n in os.listdir(a):
            p = os.path.join(a, n)
            shutil.rmtree(p) if os.path.isdir(p) else os.unlink(p)

    def delete_root_dir_contents(self):
        self.delete_dir_contents("")

    def delete_file(self, path):
        os.unlink(self._abs(path))

    def move(self, src, dest):
        raise NotImplementedError(
            "object stores cannot rename; the lake protocol must never "
            "call move() — this raise is the test oracle for that")

    def copy_file(self, src, dest):
        a, b = self._abs(src), self._abs(dest)
        os.makedirs(os.path.dirname(b), exist_ok=True)
        shutil.copyfile(a, b)

    # streams --------------------------------------------------------------
    def open_input_stream(self, path):
        a = self._abs(path)
        if not os.path.isfile(a):
            raise FileNotFoundError(path)
        return pa.PythonFile(open(a, "rb"), mode="r")

    def open_input_file(self, path):
        return self.open_input_stream(path)

    def _staging_tmp(self) -> str:
        # in-flight uploads live OUTSIDE the key space (a hidden dir at
        # the store root), like incomplete multipart uploads: listings
        # of any object prefix never see them
        d = os.path.join(self.base, ".inflight")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, uuid.uuid4().hex)

    def open_output_stream(self, path, metadata=None):
        # a put is atomic-by-key: stage outside the key space, install
        # on an ERROR-FREE close (the INTERFACE exposes only completed
        # objects — a write that failed mid-stream aborts like an
        # abandoned multipart upload, leaving the old object intact)
        a = self._abs(path)
        os.makedirs(os.path.dirname(a), exist_ok=True)
        tmp = self._staging_tmp()
        raw = open(tmp, "wb")

        class _Put(io.BufferedWriter):
            _failed = False

            def write(self, b):
                try:
                    return super().write(b)
                except BaseException:
                    self._failed = True
                    raise

            def close(self):
                if not self.closed:
                    try:
                        super().close()
                    except BaseException:
                        self._failed = True
                        raise
                    finally:
                        if self._failed:
                            try:
                                os.unlink(tmp)
                            except OSError:
                                pass
                        else:
                            os.replace(tmp, a)  # emulated atomic PUT

        return pa.PythonFile(_Put(raw.detach()), mode="w")

    def open_append_stream(self, path, metadata=None):
        raise NotImplementedError(
            "object stores cannot append; the lake protocol must never "
            "ask for an append stream")

    # native conditional put (the S3 If-None-Match analog) -----------------
    def put_if_absent(self, path: str, data: bytes) -> bool:
        # CONTENT-atomic like a real conditional PUT: the full bytes are
        # staged outside the key space first, then linked into place
        # create-exclusively — a concurrent reader sees either no object
        # or the complete one, never an empty/partial key (an O_EXCL
        # create followed by a write would expose that window)
        a = self._abs(path)
        os.makedirs(os.path.dirname(a), exist_ok=True)
        tmp = self._staging_tmp()
        with open(tmp, "wb") as f:
            f.write(data)
        try:
            os.link(tmp, a)
            return True
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)


def object_store_test_fs(backing_dir) -> "pa.fs.FileSystem":
    """A pyarrow FileSystem with object-store-only semantics, backed by
    a local directory (state shared across Ray workers through the real
    disk). rename/append raise — running the lake suite against it
    proves the commit protocol is object-store-expressible."""
    from pyarrow.fs import PyFileSystem

    os.makedirs(str(backing_dir), exist_ok=True)
    return PyFileSystem(_ObjectStoreHandler(str(backing_dir)))


# -- dispatching helpers ---------------------------------------------------

def _is_fsp(p) -> bool:
    return isinstance(p, FsPath)


def fs_mkdirs(p) -> None:
    if _is_fsp(p):
        p.fs.create_dir(p.key, recursive=True)
    else:
        Path(p).mkdir(parents=True, exist_ok=True)


def fs_exists(p) -> bool:
    if _is_fsp(p):
        from pyarrow.fs import FileType

        return p.fs.get_file_info(p.key).type != FileType.NotFound
    return Path(p).exists()


def fs_is_dir(p) -> bool:
    if _is_fsp(p):
        from pyarrow.fs import FileType

        return p.fs.get_file_info(p.key).type == FileType.Directory
    return Path(p).is_dir()


def fs_names(p, pattern: str) -> list[str]:
    """Sorted basenames of the non-recursive children of directory/prefix
    ``p`` that match ``pattern``; none when ``p`` does not exist."""
    if _is_fsp(p):
        from pyarrow.fs import FileSelector

        try:
            infos = p.fs.get_file_info(
                FileSelector(p.key, allow_not_found=True))
        except FileNotFoundError:
            return []
        names = [i.path.rsplit("/", 1)[-1] for i in infos]
    else:
        try:
            names = os.listdir(p)
        except (FileNotFoundError, NotADirectoryError):
            return []
    return fnmatch.filter(sorted(names), pattern)


def fs_glob(p, pattern: str):
    """Non-recursive children of directory/prefix ``p`` whose BASENAME
    matches ``pattern`` (every lake glob is single-level), sorted."""
    if not _is_fsp(p):
        p = Path(p)
    return [p / n for n in fs_names(p, pattern)]


def fs_rglob(p, pattern: str):
    """Recursive descendants of ``p`` whose BASENAME matches
    ``pattern``; returns (path, key-relative-to-p) pairs, sorted."""
    if _is_fsp(p):
        from pyarrow.fs import FileSelector, FileType

        try:
            infos = p.fs.get_file_info(
                FileSelector(p.key, recursive=True, allow_not_found=True))
        except FileNotFoundError:
            return []
        out = []
        for i in infos:
            if i.type == FileType.File and \
                    fnmatch.fnmatch(i.path.rsplit("/", 1)[-1], pattern):
                rel = i.path[len(p.key):].lstrip("/")
                out.append((FsPath(p.fs, i.path), rel))
        return sorted(out, key=lambda t: t[1])
    base = Path(p)
    return sorted(((f, str(f.relative_to(base)))
                   for f in base.rglob(pattern)), key=lambda t: t[1])


def fs_read_bytes(p) -> bytes:
    if _is_fsp(p):
        with p.fs.open_input_stream(p.key) as f:
            return f.read()
    return Path(p).read_bytes()


def fs_publish_bytes(p, data: bytes) -> None:
    """Atomic whole-object publish: readers see the old object or the
    new one, never a partial write."""
    if _is_fsp(p):
        with p.fs.open_output_stream(p.key) as f:
            f.write(data)
        return
    path = Path(p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("." + path.name + f".{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def fs_read_text(p) -> str:
    return fs_read_bytes(p).decode()


def fs_write_text_atomic(p, text: str) -> None:
    fs_publish_bytes(p, text.encode())


def fs_publish_json(p, obj) -> None:
    fs_publish_bytes(p, json.dumps(obj, indent=1, sort_keys=True).encode())


def fs_put_json_if_absent(p, obj) -> bool:
    """FIRST-WRITER-WINS creation: exactly one of N racing writers
    lands the object; losers get False. POSIX: os.link
    create-exclusive. Object store: native conditional put when the
    filesystem provides one (the mock does; real S3 = If-None-Match),
    else the documented exists→put fallback."""
    data = json.dumps(obj, indent=1, sort_keys=True).encode()
    if _is_fsp(p):
        handler = getattr(p.fs, "handler", None)
        if handler is not None and hasattr(handler, "put_if_absent"):
            return bool(handler.put_if_absent(p.key, data))
        # No native conditional put on this filesystem: a check-then-put
        # would let a racing loser CLOBBER the winner's manifest — the
        # exact corruption first-writer-wins exists to rule out. Refuse
        # by default; a deployment that guarantees one runner per lake
        # may opt in explicitly.
        if os.environ.get("CHOMPER_SINGLE_RUNNER") != "1":
            raise NotImplementedError(
                f"filesystem {type(p.fs).__name__} exposes no conditional "
                "put (put_if_absent): exactly-once commits under "
                "concurrent runners need one (S3: If-None-Match PUT — "
                "plug a handler like state/fs.py's mock shows). If this "
                "lake provably has a SINGLE runner, set "
                "CHOMPER_SINGLE_RUNNER=1 to accept check-then-put.")
        if fs_exists(p):
            return False
        fs_publish_bytes(p, data)
        return True
    path = Path(p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("." + path.name + f".{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_bytes(data)
    try:
        os.link(tmp, path)
        return True
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)


def fs_parquet_file(p) -> pq.ParquetFile:
    """Open one Parquet file: the footer is parsed once and column
    chunks are pre-buffered (coalesced reads), with pyarrow's default
    read threads. Every lake Parquet read opens through here; close it
    (``with``) when done."""
    if _is_fsp(p):
        return pq.ParquetFile(p.key, filesystem=p.fs, pre_buffer=True)
    return pq.ParquetFile(str(p), pre_buffer=True)


def fs_read_table(p, columns=None, filters=None) -> pa.Table:
    """Read one Parquet file (a lake path, or a ``ParquetFile`` the
    caller opened and closes), optionally column-projected and
    key-filtered. Same table as pyarrow's dataset-backed
    ``read_table`` with the same arguments, for the two filter forms
    the engine passes, ``[(col, "=", v)]`` and ``[(col, "in", vals)]``,
    without building a dataset per file. A filtered read is key first:
    row groups whose min/max statistics exclude every value are
    skipped, only the filter column of the rest is decoded, and its
    exact mask (null cells never match a non-null value) decides. A
    read that matches nothing decodes no other column; otherwise the
    other requested columns are decoded once and masked. A column the
    file lacks raises ``KeyError``; any other filter form raises
    ``ValueError``."""
    if not isinstance(p, pq.ParquetFile):
        with fs_parquet_file(p) as pf:
            return fs_read_table(pf, columns, filters)
    schema = p.schema_arrow
    names = schema.names
    missing = [c for c in (columns or ()) if c not in names]
    if missing:
        raise KeyError(f"column(s) {missing} not in the file "
                       f"(it has {names})")
    if filters is None:
        tbl = p.read(columns=columns)
    else:
        tbl = _read_matching(p, columns, filters, schema)
    if columns is not None and tbl.column_names != list(columns):
        tbl = tbl.select(list(columns))
    return tbl


def _read_matching(pf: pq.ParquetFile, columns, filters,
                   schema: pa.Schema) -> pa.Table:
    """``fs_read_table``'s filtered read of ``pf`` (whose Arrow schema
    is ``schema``), in the file's column order when ``columns`` is None,
    else in the order of ``columns`` with each name once. Row groups
    holding fewer than ``_THREADED_ROWS`` rows in all decode on the
    calling thread."""
    col, vals, is_eq = _parse_filter(filters, schema.names)
    typ = schema.field(col).type
    rgs = _row_groups_matching(pf, col, vals)
    want = schema.names if columns is None else list(dict.fromkeys(columns))
    if not rgs:
        return schema.empty_table().select(want)
    use_threads = sum(pf.metadata.row_group(i).num_rows
                      for i in rgs) >= _THREADED_ROWS
    keys = pf.read_row_groups(rgs, columns=[col], use_threads=use_threads)
    if is_eq:
        mask = pc.equal(keys[col], pa.scalar(vals[0], type=typ))
    else:
        mask = pc.is_in(keys[col], value_set=pa.array(vals, type=typ))
    if not pc.any(mask).as_py():
        return schema.empty_table().select(want)
    rest = [c for c in want if c != col]
    if not rest:
        return keys.filter(mask)
    tbl = pf.read_row_groups(rgs, columns=rest,
                             use_threads=use_threads).filter(mask)
    if col in want:
        tbl = tbl.add_column(want.index(col), keys.schema.field(col),
                             keys[col].filter(mask))
    return tbl


# Arrow's thread pool costs a small read more time than it saves:
# decoding every column of one lake row group through a four-thread pool
# took longer than on the calling thread up to 8,000 rows (0.98 against
# 0.83 ms at 4,000) and less from 16,000 rows (3.5 against 4.8 ms; 9.4
# against 15.8 ms at 64,000), on a 4-CPU VM
_THREADED_ROWS = 16_000


def _parse_filter(filters, names):
    """``[(col, "=", v)]`` -> (col, [v], True); ``[(col, "in", vals)]``
    -> (col, list(vals), False). Anything else is refused."""
    if not (isinstance(filters, list) and len(filters) == 1
            and isinstance(filters[0], tuple) and len(filters[0]) == 3
            and filters[0][1] in ("=", "in")):
        raise ValueError(
            f"unsupported filter {filters!r}: fs_read_table takes only "
            "[(col, '=', value)] or [(col, 'in', values)]")
    col, op, val = filters[0]
    if col not in names:
        raise KeyError(f"filter column {col!r} not in the file "
                       f"(it has {names})")
    if op == "=":
        return col, [val], True
    if isinstance(val, (str, bytes)) or not hasattr(val, "__iter__"):
        raise ValueError(f"'in' filter on {col!r} needs a collection of "
                         f"values, got {val!r}")
    return col, list(val), False


def _row_groups_matching(pf: pq.ParquetFile, col: str, vals) -> list:
    """Indices of the row groups whose min/max statistics on ``col``
    admit at least one of ``vals``. A row group without statistics is
    kept (the exact mask decides), and so is every row group when a
    value is null (``in`` then matches the null cells)."""
    md = pf.metadata
    every = range(md.num_row_groups)
    if any(v is None for v in vals):
        return list(every)
    leaf = next(j for j in range(md.num_columns)
                if md.schema.column(j).path == col)
    wanted = sorted(set(vals))
    keep = []
    for i in every:
        st = md.row_group(i).column(leaf).statistics
        if st is not None and st.has_min_max:
            j = bisect.bisect_left(wanted, st.min)
            if j == len(wanted) or wanted[j] > st.max:
                continue
        keep.append(i)
    return keep


_PAYLOAD_TYPES = (pa.string(), pa.large_string(), pa.binary(),
                  pa.large_binary())


def _leaf_paths(name: str, typ: pa.DataType):
    """Parquet column paths of one Arrow field, as the writer names
    them (compliant nested types)."""
    if pa.types.is_struct(typ):
        for f in typ:
            yield from _leaf_paths(f"{name}.{f.name}", f.type)
    elif pa.types.is_map(typ):
        yield from _leaf_paths(f"{name}.key_value.key", typ.key_type)
        yield from _leaf_paths(f"{name}.key_value.value", typ.item_type)
    elif (pa.types.is_list(typ) or pa.types.is_large_list(typ)
          or pa.types.is_fixed_size_list(typ)):
        yield from _leaf_paths(f"{name}.list.element", typ.value_type)
    else:
        yield name


def _lake_write_options(schema: pa.Schema, key: str) -> dict:
    """The lake's file-format rule. A payload column (string or binary,
    not the key) is zstd level 3 without statistics: it is most of a
    file's bytes, and no read prunes on it. Every other column keeps
    snappy and its min/max statistics; the key's drive
    ``fs_read_table``'s row-group pruning."""
    if key not in schema.names:
        raise KeyError(f"key column {key!r} not in {schema.names}")
    compression, level, stats = {}, {}, []
    for f in schema:
        payload = f.name != key and f.type in _PAYLOAD_TYPES
        for leaf in _leaf_paths(f.name, f.type):
            if payload:
                compression[leaf], level[leaf] = "zstd", 3
            else:
                compression[leaf] = "snappy"
                stats.append(leaf)
    return {"compression": compression,
            "compression_level": level,
            "write_statistics": stats}


def fs_publish_table(tbl: pa.Table, p, *, key: str) -> None:
    """Atomic publish of one lake data file (same visibility contract
    as ``fs_publish_bytes``), written by ``_lake_write_options`` and
    without the ``pandas`` schema metadata, which lake reads do not
    need."""
    md = tbl.schema.metadata
    if md and b"pandas" in md:
        tbl = tbl.replace_schema_metadata(
            {k: v for k, v in md.items() if k != b"pandas"} or None)
    kw = _lake_write_options(tbl.schema, key)
    if _is_fsp(p):
        # one put: the output stream installs the object on close
        pq.write_table(tbl, p.key, filesystem=p.fs, **kw)
        return
    path = Path(p)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name("." + path.name + f".{uuid.uuid4().hex[:8]}.tmp")
    pq.write_table(tbl, tmp, **kw)
    os.replace(tmp, path)


def fs_parquet_writer(p, schema, **kw) -> pq.ParquetWriter:
    """Streaming parquet writer; on an object store the object appears
    only when the writer closes (single completed put)."""
    if _is_fsp(p):
        return pq.ParquetWriter(p.key, schema, filesystem=p.fs, **kw)
    Path(p).parent.mkdir(parents=True, exist_ok=True)
    return pq.ParquetWriter(str(p), schema, **kw)


def fs_unlink(p, missing_ok: bool = True) -> None:
    if _is_fsp(p):
        try:
            p.fs.delete_file(p.key)
        except FileNotFoundError:
            if not missing_ok:
                raise
        return
    Path(p).unlink(missing_ok=missing_ok)


def fs_rmtree(p) -> None:
    if _is_fsp(p):
        try:
            p.fs.delete_dir(p.key)
        except FileNotFoundError:
            pass
        return
    shutil.rmtree(Path(p), ignore_errors=True)


def fs_rmdir_if_empty(p) -> None:
    """Remove directory (prefix) ``p`` if it holds nothing."""
    if _is_fsp(p):
        if fs_is_dir(p) and not fs_glob(p, "*"):
            fs_rmtree(p)
        return
    try:
        os.rmdir(p)
    except OSError:  # missing or not empty
        pass


def fs_copy_file(src, dst, prefer_link: bool = True) -> None:
    """Copy one object/file; POSIX may hardlink (same content, zero
    bytes) when ``prefer_link``."""
    if _is_fsp(src) or _is_fsp(dst):
        assert _is_fsp(src) and _is_fsp(dst) and src.fs is dst.fs, \
            "cross-filesystem copy not supported"
        src.fs.copy_file(src.key, dst.key)
        return
    Path(dst).parent.mkdir(parents=True, exist_ok=True)
    if prefer_link:
        try:
            os.link(src, dst)
            return
        except OSError:
            pass
    shutil.copy2(src, dst)


def require_local_lake_root(lake, what: str) -> None:
    """Derived maintenance reads lake files through path strings and
    mixes them with local scratch in signed-diff reads — not yet routed
    through the FsPath layer. Refuse an object-store lake root LOUDLY
    here instead of failing deep inside a Ray task with a missing local
    path. (The lake itself — ingest, read, lookup, compaction, GC,
    fsck, branch — is fully object-store-capable; see state/fs.py.)"""
    root = getattr(lake, "root", None)
    if isinstance(root, FsPath):
        raise NotImplementedError(
            f"{what} over an object-store lake root ({root}) is not "
            "supported yet: derived maintenance needs the lake on a "
            "local/NFS path; the lake's own ingest/read/maintenance "
            "surface is object-store-capable (state/fs.py)")
