"""Numeric substrate: dense float64 matrices, a counter-based splittable RNG,
the package's one helper that runs work in forked children, and the codec
every CSV and JSON artifact is written and read through.

Everything here is deterministic: the same inputs (and the same RNG state)
always produce the same bits on a given machine, which is what lets the rest
of the pipeline promise byte-identical reruns.  A CSV cell is its number's
repr, computed for a block of cells at a time by integer array arithmetic
rather than by a `repr` call per cell.  Work split over forked children is
read back in order, so the CPU count changes no bit either: the
weak-learner search trains its restart chunks that way, and `write_table`
formats a large table's row ranges that way.  The package starts no
threads of its own.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os
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


# --- work in forked children ----------------------------------------------

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
    fork has no such context, so it is asked for only where a child starts,
    and `multiprocessing` is imported there too: a process that never
    starts a child never loads it.  Closing the generator kills and reaps
    every child."""
    results = [work(chunk) for chunk in chunks]
    children = []
    try:
        for i in range(1, min(workers, len(chunks))):
            import multiprocessing
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


# --- artifact codec -----------------------------------------------------------
# UTF-8.  JSON: indent 2, final newline.  CSV: every table (datasets, logits,
# the run history, the curves, the early-exit summary) is a one-dimensional
# record array, described by its record type alone: its header names the
# record's fields (`_numeric_columns`), and since no number needs quoting,
# `write_table` writes each record as its cells' repr (str for an int)
# joined by commas plus CRLF, the line the csv module's default dialect would
# write.  Those texts are computed about `_BLOCK_CELLS` cells at a time by
# the cell encoder below, not by `repr`, and are repr's bytes for every
# float64 cell, inf and nan included.  Formatting them is still most of a
# large table's write, so a table cut into one
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


# the fewest cells a child formats.  On a 2-CPU host a write of 2 x 65536
# cells is about where a child starts to pay for itself (it saves about
# 10 ms), but a fork also costs the forking process afterwards, as it writes
# again to the pages it shared with the child: in a pipeline process, a fork
# for a write that saved as little moved about as much time into the next
# phase as it saved.  At 2 x 131072 cells the write saves about 30 ms.
_FORK_MIN_CELLS = 131072
# the cells formatted together.  Each array step of the encoder then works on
# 64 KB and a block's arrays peak near 2 MB; blocks of 4096 cells cost about
# a fifth more per cell, and larger blocks gain little on a 2-column table.
_BLOCK_CELLS = 8192


# --- the cell encoder -----------------------------------------------------------
# `_encode_block` writes each float64 cell as its repr and each int64 cell as
# its str, for a whole block of cells at once, in uint64 array arithmetic.
#
# Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
# 2020; Java's DoubleToDecimal) finds the shortest decimal that reads back
# to a float's bits, the nearest one when several are as short, and the even
# one on an exact tie: the digits repr prints.  A finite float is c * 2**q,
# and its rounding interval runs between the half-way points to its
# neighbours, ends included when c is even.  With k = floor(log10 of the
# interval's width), the interval holds at most one multiple of 10**(k+1),
# the answer if there is one; else the multiple of 10**k nearest the float
# is.  The lower end, the float and the upper end are compared scaled by
# 4 * 10**-k: 4c - 2, 4c and 4c + 2, shifted left by h bits, times one
# 126-bit g per k, of which the bits from 127 up are kept.  All three come
# from one pair of products, g's high and low 63 bits times the lower end,
# by adding g shifted left by h + 1, twice.  Below a power of two (c = 2**52
# above the least normal float) the float below is half as far away: the
# lower end is 4c - 1, and the first step g shifted left by h.  Each value is
# rounded to odd as Java's `rop` does: a 1 is ORed in if any of the 63 bits
# below is set, of the products truncated as Java truncates them.  The
# proof that this orders the candidates rightly is for that truncation; a
# sticky bit from the whole products counts g's excess over 10**-k as a
# fraction, lets the excluded end of an open interval in when it is a
# candidate, and prints 3.7609587960547416e16 as 3.760958796054742e16.
# Java keeps two digits ("4.9E-324"): it scales the least subnormals' c by
# 10 and tries one digit fewer only from 100 up.  repr prints "5e-324", so c
# stays as it is and a digit may go from 10 up.  A shorter result, or 10
# after a single digit, then loses its trailing zeros.
# Text: CPython's 'r' rules.  With digits d1..dn and the decimal point after
# position p (the value is 0.d1..dn * 10**p), p <= -4 or p > 16 gives the
# exponent form d1[.d2..dn]e+XX, with a sign and at least two exponent
# digits; otherwise the digits are padded with zeros on either side and
# always show a point and a digit after it ("1.0", "0.001").  -0.0 keeps its
# sign; inf, -inf and nan are written as repr writes them.  Each cell's text
# is built left-aligned in four little-endian words, NUL-padded, followed by
# its separator (a comma, or CRLF after a record's last cell), and a block's
# bytes are its cells' words with every NUL byte dropped.

_U64 = np.uint64
_LOW32, _LOW63 = _U64((1 << 32) - 1), _U64((1 << 63) - 1)
# the least and largest k of a float64's scale 10**-k
_K_MIN, _K_MAX = -324, 292


def _word(text: bytes) -> int:
    """`text`, at most 8 bytes, as a little-endian word: its first byte lowest."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _words(values) -> np.ndarray:
    return np.array(list(values), dtype=np.uint64)


def _scale_table():
    """g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1, which lies
    between 2**125 and 2**126, for k = _K_MIN .. _K_MAX, as its high and low
    63 bits."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # floor(log2(10**-k)) as `_shortest` works it out
        shift = 125 - (-k * 913124641741 >> 38)
        g.append((10 ** max(-k, 0) << max(shift, 0)) // (10 ** max(k, 0) << max(-shift, 0)) + 1)
        assert 1 << 125 < g[-1] < 1 << 126
    return _words(v >> 63 for v in g), _words(v & (1 << 63) - 1 for v in g)


_G1, _G0 = _scale_table()
_POW10 = _words(10 ** k for k in range(20))


def _ascii_digits(width: int) -> np.ndarray:
    """The words of the ASCII digits of 0 .. 10**width - 1, zero-padded."""
    digits = np.arange(0x30, 0x3A, dtype=np.uint64)
    words = digits
    for k in range(1, width):
        words = np.add.outer(words, digits << _U64(8 * k)).ravel()
    return words


_DIGITS4, _DIGITS3 = _ascii_digits(4), _ascii_digits(3)
# what comes before a cell's digits: a sign and z zeros (index neg + 2 * z,
# z up to 4), or a whole non-finite cell
_HEADS = [b"-" * neg + b"0" * z for z in range(5) for neg in (0, 1)] + [b"inf", b"-inf", b"nan"]
_INF, _NAN = 10, 12
_HEAD = _words(_word(h) for h in _HEADS)
_HEAD_BITS = _words(8 * len(h) for h in _HEADS)
_HEAD_LEN = np.array([len(h) for h in _HEADS], dtype=np.int64)
# what comes after: an exponent, if any, and the separator; index
# 2 * (exponent + _NO_EXPONENT) + (1 after a record's last cell)
_NO_EXPONENT = 400
_TAIL = _words(_word((b"e%+03d" % e if e > -_NO_EXPONENT else b"") + sep)
               for e in range(-_NO_EXPONENT, _NO_EXPONENT) for sep in (b",", b"\r\n"))


def _text_table(positions: int, value) -> np.ndarray:
    """Row t holds `value(t, k)` for each word k of a cell's 32-byte text."""
    return _words(value(t, k) for t in range(positions) for k in range(4)).reshape(positions, 4)


# for a byte index t of a cell's text: the bytes before t, and a '.' at t;
# and for a point's index p and a text's length t (row 34 * p + t): the
# bytes before both, and the bytes after p and before t
_BEFORE = _text_table(34, lambda t, k: (1 << 8 * min(max(t - 8 * k, 0), 8)) - 1)
_DOT = _text_table(33, lambda t, k: 0x2E << 8 * (t - 8 * k) if 0 <= t - 8 * k < 8 else 0)
_BEFORE_BOTH = (_BEFORE[:33, None] & _BEFORE).reshape(-1, 4)
_BETWEEN = (~_BEFORE[1:, None] & _BEFORE).reshape(-1, 4)
_NO_POINT = 32


def _take(table, index):
    return table.take(index, mode="clip")


def _product(x, y):
    """The high and low words of x * y, for x below 2**63 and y below 2**60."""
    x0, x1 = x & _LOW32, x >> _U64(32)
    y0, y1 = y & _LOW32, y >> _U64(32)
    cross = x1 * y0 + (x0 * y0 >> _U64(32))
    inner = x0 * y1 + (cross & _LOW32)
    return x1 * y1 + (cross >> _U64(32)) + (inner >> _U64(32)), x * y


def _plus(products, g1, g0, shift):
    """`products`, the words of g1 * y and of g0 * y, with g1 * 2**shift
    and g0 * 2**shift added in place, for `shift` from 1 to 63."""
    down = _U64(64) - shift
    for high, low, g in ((*products[:2], g1), (*products[2:], g0)):
        shifted = g << shift
        low += shifted
        high += low < shifted
        high += g >> down
    return products


def _rop(products):
    """Java's rop of g * y, from the words (high, low, x, x_low) of g1 * y
    and g0 * y: ((high:low) // 2 + x) // 2**63, with 1 ORed in unless the
    63 bits below are all 0."""
    high, low, x, _ = products
    below = low >> _U64(1)
    below += x
    value = below >> _U64(63)
    value += high
    below &= _LOW63
    value |= below != 0
    return value


def _shortest(bits):
    """Schubfach's shortest digits of the finite nonzero floats whose bits
    are `bits`, as (digits, e) with each float's repr value digits * 10**e;
    other cells give values that are not read."""
    exponent = (bits >> _U64(52) & _U64(0x7FF)).view(np.int64)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | (exponent != 0).astype(np.uint64) << _U64(52)
    # k = floor(log10(2**q)), or of 3/4 * 2**q below a power of two
    q = np.maximum(exponent, 1) - 1075
    nearer = (fraction == 0) & (exponent > 1)
    k = q * 661971961083 - nearer * 274743187321 >> 41
    # q + floor(log2(10**-k)) + 2, from 2 to 5
    h = ((k * -913124641741 >> 38) + q + 2).view(np.uint64)
    g1, g0 = _take(_G1, k - _K_MIN), _take(_G0, k - _K_MIN)
    low_end = (c << _U64(2)) - (_U64(2) - nearer) << h
    products = (*_product(g1, low_end), *_product(g0, low_end))
    vl = _rop(products)
    v = _rop(_plus(products, g1, g0, h + _U64(1) - nearer))
    vr = _rop(_plus(products, g1, g0, h + _U64(1)))
    # the candidates, scaled by 4 like v: the multiples of 10**(k+1) beside
    # v, while s has two digits or more, then s and s + 1 times 10**k;
    # an odd c leaves the ends out
    odd = c & _U64(1)
    vl += odd
    vr -= odd
    s = v >> _U64(2)
    tens = s // _U64(10)
    candidate = tens * _U64(40)
    lower_in = vl <= candidate
    candidate += _U64(40)
    upper_in = candidate <= vr
    shorter = lower_in != upper_in
    shorter &= s >= _U64(10)
    tens += upper_in
    # s + 1 if only it is in, or both are and v is past their midpoint, or
    # on it with s odd
    np.left_shift(s, _U64(2), out=candidate)
    up = (v & _U64(3)) + (s & _U64(1)) > _U64(2)
    up |= vl > candidate
    candidate += _U64(4)
    up &= candidate <= vr
    digits = s + up
    np.copyto(digits, tens, where=shorter)
    e10 = k + shorter
    # drop the trailing zeros (at most 15) of the cells that have any
    at = np.flatnonzero(digits // _U64(10) * _U64(10) == digits)
    some, more = digits[at], e10[at]
    for drop in (8, 4, 2, 1):
        fewer = some // _U64(10 ** drop)
        zeros = fewer * _U64(10 ** drop) == some
        np.copyto(some, fewer, where=zeros)
        more += drop * zeros
    digits[at], e10[at] = some, more
    return digits, e10


def _digit_count(values):
    """The number of decimal digits of each of `values` (below 10**19), 1 for 0."""
    guess = values.astype(np.float64).view(np.int64)
    guess >>= 52
    guess -= 1022       # the bit length, or one more if the float rounded up
    guess *= 1233       # 1233 / 4096 is just above log10(2)
    guess >>= 12
    np.maximum(guess, 0, out=guess)
    guess += values >= _take(_POW10, guess)
    return np.maximum(guess, 1, out=guess)


def _ascii8(digits, scale):
    """The word of the eight digits of `digits // scale` (below 10**8), which
    are taken off `digits`."""
    eight = digits // _U64(scale)
    digits -= eight * _U64(scale)
    four = eight // _U64(10000)
    eight -= four * _U64(10000)
    word = _take(_DIGITS4, eight.view(np.int64))
    word <<= 32
    word |= _take(_DIGITS4, four.view(np.int64))
    return word


def _text_words(head, digits, count, point, shown, tail):
    """The (n, 4) words of n cells' texts: `_HEADS[head]`, then the `count`
    digits of `digits` followed by zeros, with a '.' inserted at byte
    `point` unless that is `_NO_POINT`, all cut to `shown` bytes, then
    `_TAIL[tail]`."""
    n = len(head)
    # the 19 digits of digits * 10**(19 - count), in three words: eight,
    # eight and three
    digits *= _take(_POW10, 19 - count)
    a, b = (_ascii8(digits, scale) for scale in (10 ** 11, 1000))
    c = _take(_DIGITS3, digits.view(np.int64))
    # after the head
    bits = _take(_HEAD_BITS, head)
    rest = _U64(64) - bits
    flat = np.zeros(4 * n + 1, np.uint64)      # one spare word for the last tail
    words = flat[:-1].reshape(n, 4)
    words[:, 0] = _take(_HEAD, head) | (a << bits)
    words[:, 1] = (a >> rest) | (b << bits)
    words[:, 2] = (b >> rest) | (c << bits)
    if (point != _NO_POINT).any():
        # bytes from `point` on move up by one; word 3 is still empty, so the
        # byte moving out of a cell's last word is 0
        moved = flat[:-1] << _U64(8)
        moved[1:] |= flat[:-2] >> _U64(56)
        pair = point * 34
        pair += shown
        words &= _BEFORE_BOTH.take(pair, axis=0, mode="clip")
        moved &= _BETWEEN.take(pair, axis=0, mode="clip").ravel()
        words |= moved.reshape(n, 4)
        words |= _DOT.take(point, axis=0, mode="clip")
    else:
        words &= _BEFORE.take(shown, axis=0, mode="clip")
    # the tail at byte `shown`, across two words where it straddles them; a
    # tail that ends a cell's last word puts only zeros in the next one
    at = shown >> 3
    at += np.arange(0, 4 * n, 4)
    start = (shown & 7).view(np.uint64) << _U64(3)
    tail = _take(_TAIL, tail)
    flat[at] |= tail << start
    flat[at + 1] |= tail >> (_U64(64) - start)
    return words


def _float_words(values, last):
    """`_text_words` of float64 `values`; `last` is 1 after a record's last cell."""
    bits = values.view(np.uint64)
    digits, e10 = _shortest(bits)
    zero = (bits << _U64(1)) == 0
    if zero.any():
        digits[zero], e10[zero] = 0, 0
    count = _digit_count(digits)
    neg = (bits >> _U64(63)).view(np.int64)
    position = count + e10                      # of the decimal point
    exponent = (position < -3) | (position > 16)
    tail = exponent * (2 * (position - 1 + _NO_EXPONENT))
    tail += last
    position[exponent] = 1
    zeros = np.maximum(1 - position, 0)
    point = np.maximum(position, 1)
    point += neg
    # the digits, the zeros the point needs after them, and the point
    shown = np.maximum(count, position + 1)
    shown += zeros
    shown += neg + 1
    bare = exponent & (count == 1)              # "1e+16": no point
    if bare.any():
        point[bare] = _NO_POINT
        shown[bare] = neg[bare] + 1
    head = zeros
    head *= 2
    head += neg
    other = (bits & _U64(0x7FF << 52)) == _U64(0x7FF << 52)
    if other.any():
        nan = other & ((bits & _U64((1 << 52) - 1)) != 0)
        head[other] = _INF + neg[other]
        head[nan] = _NAN
        shown[other] = _HEAD_LEN[head[other]]
        point[other] = _NO_POINT
        tail[other] = last[other]
    return _text_words(head, digits, count, point, shown, tail)


def _int_words(values, last):
    """`_text_words` of int64 `values`; `last` is 1 after a record's last cell."""
    neg = values < 0
    digits = values.view(np.uint64).copy()
    np.negative(digits, out=digits, where=neg)
    count = _digit_count(digits)
    neg = neg.astype(np.int64)
    return _text_words(neg, digits, count, np.full(len(values), _NO_POINT), neg + count, last)


def _encode_block(records) -> bytes:
    """The CSV lines of `records` (see the codec comment)."""
    n, fields = len(records), []
    for name in records.dtype.names:
        column = records[name].reshape(n, -1)
        kind = column.dtype
        if np.issubdtype(kind, np.floating) and np.can_cast(kind, np.float64):
            fields.append((_float_words, np.ascontiguousarray(column, np.float64)))
        elif np.issubdtype(kind, np.integer) and np.can_cast(kind, np.int64):
            fields.append((_int_words, np.ascontiguousarray(column, np.int64)))
        else:
            raise TypeError(f"no CSV cell is written for {name}'s type {kind}")
    width, at, texts = sum(column.shape[1] for _, column in fields), 0, []
    for words, column in fields:
        at += column.shape[1]
        last = np.zeros(column.shape, np.int64)
        last[:, -1] = at == width
        texts.append(words(column.ravel(), last.ravel()).reshape(n, -1, 4))
    raw = (texts[0] if len(texts) == 1 else np.concatenate(texts, axis=1)).view(np.uint8).ravel()
    return raw[raw != 0].tobytes()


def _lines(records):
    """Yield the encoded lines of `records` (see the codec comment), about
    `_BLOCK_CELLS` cells to a block, so memory stays bounded."""
    rows = max(1, _BLOCK_CELLS // len(_numeric_columns(records.dtype)))
    for start in range(0, len(records), rows):
        yield _encode_block(records[start:start + rows])


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


def write_table(path, records) -> str:
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
    parts = fork_chunks(ranges, lambda part: _lines(records[part.start:part.stop]),
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
