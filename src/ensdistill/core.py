"""Numeric substrate: dense float64 matrices, a counter-based splittable RNG,
the package's one helper that runs work in forked children and its one
helper that runs work on threads, and the codec every CSV and JSON artifact
is written and read through.

Everything here is deterministic: the same inputs (and the same RNG state)
always produce the same bits on a given machine, which is what lets the rest
of the pipeline promise byte-identical reruns.  Work split over forked
children is read back in order, so the CPU count changes no bit either: the
weak-learner search trains its restart chunks that way, and `write_table`
formats a large table's row ranges that way.  Work split over threads
(`thread_chunks`) is the ensemble's forward pass over fixed row blocks,
whose edges do not depend on the CPU count.
"""
from __future__ import annotations

import contextlib
import contextvars
import csv
import hashlib
import itertools
import json
import multiprocessing
import os
import threading
import zipfile
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when matrix operands have incompatible shapes."""


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """Assert that every entry of `arr` is finite; returns the array."""
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{name} contains non-finite entries")
    return arr


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shifted for overflow safety; written into `out` if
    given."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.subtract(z, z.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


# --- counter-based RNG ------------------------------------------------------
#
# A value stream is splitmix64 evaluated at (seed + k * golden), k = counter.
# Stateless per draw, so a stream is just (seed, counter) and advancing it is
# a value operation.  Children are derived by hashing (seed, tag) through the
# same mixer with a domain-separation constant, so child streams never alias
# the parent's value sequence.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SPLIT_SALT = np.uint64(0x2545F4914F6CDD1D)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_values(seed: int, start: int, n: int) -> np.ndarray:
    counters = np.arange(start, start + n, dtype=np.uint64)
    base = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    return _mix64(base + (counters + np.uint64(1)) * _GOLDEN)


@dataclass(frozen=True)
class RngStream:
    """Seedable, splittable pseudorandom stream with value semantics.

    Drawing returns (values, advanced_stream); the receiver is never mutated,
    so sharing a stream across tasks requires an explicit split per task.
    """

    seed: int
    counter: int = 0

    def uniform(self, n: int) -> tuple[np.ndarray, "RngStream"]:
        """n uniforms in (0, 1]."""
        if n < 0:
            raise ValueError("n must be >= 0")
        raw = _stream_values(self.seed, self.counter, n)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        return u, RngStream(self.seed, self.counter + n)

    def gaussian(self, n: int) -> tuple[np.ndarray, "RngStream"]:
        """n standard-normal variates via Box-Muller."""
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0, dtype=np.float64), self
        m = (n + 1) // 2
        u, nxt = self.uniform(2 * m)
        u1, u2 = u[:m], u[m:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return out, nxt

    def permutation(self, n: int) -> tuple[np.ndarray, "RngStream"]:
        """Deterministic permutation of range(n): the order that sorts n
        uniforms, ties broken by position.

        Distinct keys have one sorted order, which any sort finds, so the
        default sort (several times faster than a stable one) is used and
        the stable sort only when two keys tie."""
        u, nxt = self.uniform(n)
        perm = np.argsort(u)
        if not np.diff(u[perm]).all():
            perm = np.argsort(u, kind="stable")
        return perm, nxt

    def split(self, tag: int) -> "RngStream":
        """Child stream for `tag`; the parent is unchanged.

        Distinct tags give independent children, and splitting a child again
        with the same tag gives a different stream than the child itself.
        """
        base = np.array([int(self.seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        h = _mix64(base ^ _SPLIT_SALT) + np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF)
        return RngStream(int(_mix64(h)[0]), 0)


# --- work in forked children and on threads --------------------------------

def usable_cpus() -> int:
    """CPUs this process may run on: how many chunks of work run at once.
    A platform without the affinity call runs them one after another."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def split_range(items: range, parts: int) -> list:
    """`items` cut into at most `parts` contiguous, non-empty ranges whose
    lengths differ by at most one."""
    n = len(items)
    parts = min(parts, n)
    return [items[n * i // parts:n * (i + 1) // parts] for i in range(parts)]


def row_blocks(n: int, rows: int) -> list:
    """`range(n)` cut into slices of `rows` rows, the last one taking the
    remainder: `max(n // rows, 1)` blocks, each of `rows` to `2 * rows - 1`
    rows unless `n` is smaller.  The edges depend on `n` and `rows` alone."""
    starts = [i * rows for i in range(max(n // rows, 1))] + [n]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


def _send_results(conn, results) -> None:
    """A forked child's target: run `results` to its end, then send
    `(True, item)` over `conn` for each item it yielded and `(False, None)`
    after the last; or send `(False, the exception it raised)`.  One item to
    a message keeps the reader's memory at one item, not the child's share."""
    try:
        items = list(results)
    except BaseException as exc:
        conn.send((False, exc))
        return
    for item in items:
        conn.send((True, item))
    conn.send((False, None))


def _received(doing: str, child, conn):
    """Yield what a child sent, raising its exception again; `doing` says
    what the child was doing, for the error raised if it ended without
    sending everything.  Reading waits for the child."""
    while True:
        try:
            more, value = conn.recv()
        except EOFError as exc:
            child.join()
            code = child.exitcode
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChildProcessError(f"the process {doing} {how} "
                                    f"without a readable result") from exc
        if not more:
            if value is not None:
                raise value
            return
        yield value


def fork_chunks(chunks: list, work, workers: int, doing):
    """Yield (chunk, what `work(chunk)`'s iterator yields) for each chunk,
    in order; `doing(chunk)` says what a child does with its chunk.

    `work` is called here for every chunk first.  Each of
    `chunks[1:workers]` is read in a forked child, and the first is read
    here meanwhile; a later chunk (only with one worker) is read here when
    it is reached.  It must be the fork context: a child reads an iterator
    built in this process, which cannot be pickled.  A platform without
    fork has no such context, so it is asked for only where a child starts.
    Closing the generator kills and reaps every child."""
    results = [work(chunk) for chunk in chunks]
    children = []
    try:
        for i in range(1, min(workers, len(chunks))):
            fork = multiprocessing.get_context("fork")
            conn, sent = fork.Pipe(duplex=False)
            child = fork.Process(target=_send_results, args=(sent, results[i]))
            child.start()
            children.append((child, conn))
            sent.close()   # so the child's exit ends `conn`
            results[i] = _received(doing(chunks[i]), child, conn)
        yield from zip(chunks, results)
    finally:
        for child, conn in children:
            conn.close()
            child.kill()
            child.join()


def thread_chunks(chunks: list, work, workers: int) -> None:
    """Call `work(chunk)` for each chunk, on up to `workers` threads.

    The chunks are cut into contiguous runs whose lengths differ by at most
    one, the longer runs first, since a caller's last chunk may hold a
    remainder (`member_logits`' last block does).  The first run is worked
    here and each other one in a thread of its own, which runs in a copy of
    this thread's `contextvars` context, so an `np.errstate` set here holds
    there too.  numpy drops the GIL in its matmul and ufunc loops, so the
    runs compute at the same time, as long as each chunk writes its own
    memory; each such call hands the GIL over, so many small calls gain
    little.  The first exception, in chunk order, is raised again here.
    Every thread is joined before this returns or raises, so no
    `fork_chunks` fork ever sees one alive."""
    n = len(chunks)
    runs = [range(n - part.stop, n - part.start)
            for part in reversed(split_range(range(n), workers))]
    errors = [None] * len(runs)

    def run(i):
        try:
            for j in runs[i]:
                work(chunks[j])
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(runs)):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            thread.start()
            threads.append(thread)
        if runs:
            run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


# --- artifact codec -----------------------------------------------------------
# UTF-8.  JSON: indent 2, final newline.  CSV: every table (datasets, logits,
# the run history, the curves, the early-exit summary) is a one-dimensional
# record array, described by its record type alone: its header names the
# record's fields (`_numeric_columns`), and since no number needs quoting,
# `write_table` writes each record as its cells' repr joined by commas plus
# CRLF, the line the csv module's default dialect would write.  Formatting
# those cells is most of a large table's write, so a table cut into one
# contiguous row range per usable CPU, with at least `_FORK_MIN_CELLS` cells
# in each, is formatted in forked children (`fork_chunks`), the first range
# here; the ranges are hashed and written in row order, so the bytes and the
# digest do not depend on the CPU count.  A smaller table, or any table on
# one usable CPU, is formatted here alone.
# `read_numeric_csv` reads every table back; a file with a header and no rows
# is an empty table, which the dataset and logits loaders refuse.  Every
# file, JSON and sidecars included, is written under a temporary name in its
# own directory and moved onto its path once complete, so a write that fails
# part-way leaves the path as it was (`_replacing`).
#
# Only data files (datasets, logits) get a sidecar: `write_numeric_csv` also
# saves `<file>.npz` beside the file, holding `records`, the record array
# that parsing the file gives, and `csv_sha256`, the sha256 of the file's
# bytes, taken as they are written.  The CSV stays the artifact:
# `read_numeric_csv` returns the sidecar's records only while the file still
# hashes to `csv_sha256` and the records have the type it asks for, and
# parses the file, through numpy's C reader, otherwise.  Since repr
# round-trips every finite float and str every int, the two paths give the
# same bits; only NaN payloads differ, and the dataset and logits loaders
# refuse non-finite cells on both paths.  Readers never write.

def _file_sha256(path) -> str:
    """The sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def content_hash(raw: bytes) -> str:
    """The first 16 hex digits of the sha256 of `raw`, a teacher file's bytes."""
    return hashlib.sha256(raw).hexdigest()[:16]


def _numeric_columns(record: np.dtype) -> list:
    """The header of a table of `record`s: a field of k columns is named
    name0 ... name{k-1}, and a scalar field keeps its name."""
    names = []
    for name in record.names:
        shape = record.fields[name][0].shape
        names += [f"{name}{i}" for i in range(shape[0])] if shape else [name]
    return names


# the fewest cells a child formats.  On a 2-CPU host a write of 2 x 32768
# cells is about where a child starts to pay for itself, but a fork also
# costs the forking process afterwards, as it writes again to the pages it
# shared with the child: in a pipeline process, forking the 2 x 40000-cell
# write of `train_logits.csv` moved about as much time into the next phase
# as the write saved.  At 2 x 65536 cells the write saves about 50 ms.
_FORK_MIN_CELLS = 65536


def _lines(records, rows: int):
    """Yield the encoded lines of `records` (see the codec comment), `rows`
    records to a block, so memory stays bounded."""
    for start in range(0, len(records), rows):
        block = records[start:start + rows]
        # one iterator of formatted cells per column, zipped into records
        columns = [map(repr, column) for name in records.dtype.names
                   for column in block[name].reshape(len(block), -1).T.tolist()]
        yield "".join(",".join(cells) + "\r\n" for cells in zip(*columns)).encode("ascii")


@contextlib.contextmanager
def _replacing(path, mode: str, **kwargs):
    """A file opened in `mode` at a temporary name in `path`'s directory,
    moved onto `path` by `os.replace` once the block ends, and removed if the
    block raises: `path` then keeps what it held before, or stays absent."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, **kwargs) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def write_table(path, records, rows: int = 256) -> str:
    """Write `records`, a one-dimensional record array, as a CSV table (see
    the codec comment); returns the sha256 of the bytes written.  The bytes
    go to a temporary file beside `path`, which replaces `path` after the
    last block (`_replacing`).

    A child's exception is raised again here, and a child that dies before
    it has sent all its lines raises a `ChildProcessError` naming `path` and
    its rows, counted from 0 after the header; `path` is then left as it
    was, and the temporary file removed."""
    header = _numeric_columns(records.dtype)
    # as many ranges as usable CPUs, each with at least _FORK_MIN_CELLS cells
    least_rows = -(-_FORK_MIN_CELLS // len(header))
    ranges = split_range(range(len(records)),
                         max(1, min(usable_cpus(), len(records) // least_rows)))
    parts = fork_chunks(ranges, lambda part: _lines(records[part.start:part.stop], rows),
                        len(ranges), lambda part: f"formatting rows {part[0]}-{part[-1]} of {path}")
    head = (",".join(header) + "\r\n").encode("ascii")
    digest = hashlib.sha256()
    with contextlib.closing(parts):
        blocks = itertools.chain.from_iterable(lines for _, lines in parts)
        # reading the first block forks the children, so none holds the file
        first = next(blocks, b"")
        with _replacing(path, "wb") as fh:
            for block in itertools.chain([head, first], blocks):
                digest.update(block)
                fh.write(block)
    return digest.hexdigest()


def write_numeric_csv(path, records) -> None:
    """`write_table` of a data file, then its sidecar (see the codec
    comment), each replacing its path whole.  np.savez stamps no time, so
    equal records give equal bytes; it is handed an open file, since it
    would add ".npz" to a temporary name that lacks it."""
    digest = write_table(path, records)
    with _replacing(f"{path}.npz", "wb") as fh:
        np.savez(fh, records=records, csv_sha256=np.array(digest))


def _npz_member(npz, name) -> np.ndarray:
    with npz.open(f"{name}.npy") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def _sidecar_records(path, record):
    """The records of `path`'s sidecar, or None if it is missing or
    unreadable, was saved for other bytes, or does not hold a
    one-dimensional array of `record`."""
    try:
        with zipfile.ZipFile(f"{path}.npz") as npz:
            digest = _npz_member(npz, "csv_sha256")
            if str(digest) != _file_sha256(path):
                return None
            records = _npz_member(npz, "records")
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if records.dtype != record or records.ndim != 1:
        return None
    return records


def read_numeric_csv(path, record):
    """The data rows of a CSV table as one record array, empty if the file
    has none; `record(width)` is the record type of a row of `width` fields.

    The header must name that type's fields as `_numeric_columns` does.  The
    records then come from the file's sidecar if it matches (see the codec
    comment), or else are parsed by `np.loadtxt` straight from the open file.
    loadtxt skips blank lines, so each line's field count is checked before
    numpy sees the line, and the first line that fails is reported with its
    number.  Every rejection names the file.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        found = next(csv.reader(fh), [])   # [] if the file is empty or starts blank
        if not found:
            raise ValueError(f"bad header in {path}: no column names")
        width, kind = len(found), record(len(found))
        expected = _numeric_columns(kind)
        if found != expected:
            raise ValueError(f"bad header in {path}: expected {expected}, got {found}")
        saved = _sidecar_records(path, kind)
        if saved is not None:
            return saved
        bad = []        # number of the first line with another field count

        def lines():
            for num, line in enumerate(fh, start=2):
                if line.count(",") != width - 1 or line.isspace():
                    bad.append(num)
                    return
                yield line
        rows = lines()
        first = next(rows, None)
        try:
            body = np.empty(0, kind) if first is None else np.loadtxt(
                itertools.chain([first], rows), dtype=kind, delimiter=",",
                comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if bad:
        raise ValueError(f"{path} line {bad[0]}: expected {width} fields")
    return body


def write_json(path, doc) -> None:
    """Write `doc` (see the codec comment), replacing `path` whole."""
    with _replacing(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "rb") as fh:
        return parse_json(fh.read(), path)


def parse_json(raw: bytes, source):
    """The JSON document in `raw`, UTF-8 encoded; a decode error names `source`."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{source} is not UTF-8 JSON: {exc}") from exc
