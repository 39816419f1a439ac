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
# Digits: Ryu (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018)
# finds the shortest decimal that reads back to a float's bits, the nearest
# one when several are as short, and the even one on an exact tie: the
# digits repr prints.  A finite float is mv * 2**e2 with mv = 4 * m2; Ryu
# scales mv and the half-way points to its neighbours by a 125- or 126-bit
# multiplier (5**q, or 2**k / 5**q rounded up) and a right shift, both
# chosen by the exponent alone, so `_exponent_tables` builds every
# per-exponent constant once, from exact Python ints.  The 55 x 126-bit
# products are taken from 32-bit limbs and shifted right by 118 to 125
# bits; then trailing digits are dropped while the interval between the
# scaled half-way points still holds a shorter number.
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
_ALL = (1 << 64) - 1


def _word(text: bytes) -> int:
    """`text`, at most 8 bytes, as a little-endian word: its first byte lowest."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _words(values) -> np.ndarray:
    return np.array(list(values), dtype=np.uint64)


def _exponent_tables() -> dict:
    """Ryu's constants for each biased exponent 0..2047 of a float64 (that of
    inf and nan gets some, unread): the multiplier `mult` as two words, the
    right shift past 64, the power of ten of the scaled values, and the
    tests that a scaled value is exact, which make ties round to even: mv
    (or a half-way point beside it) times `inv` is at most `lim` if it is a
    multiple of 5**q, and mv & `pow2` is 0 if it is a multiple of 2**q;
    `small` marks the exponents whose half-way points are exact too."""
    def log10_pow2(e): return (e * 78913) >> 18
    def log10_pow5(e): return (e * 732923) >> 20
    tables = {name: np.zeros(2048, np.uint64) for name in ("high", "low", "shift", "inv", "lim")}
    tables.update(e10=np.zeros(2048, np.int64), pow2=np.full(2048, _ALL, np.uint64),
                  small=np.zeros(2048, bool))
    for biased in range(2048):
        e2 = max(biased, 1) - 1077
        if e2 >= 0:
            q = log10_pow2(e2) - (e2 > 3)
            e10, bits = q, (5 ** q).bit_length()
            mult, shift = (1 << bits + 124) // 5 ** q + 1, q - e2 + bits + 124
            inv, lim = (pow(5 ** q, -1, 1 << 64), _ALL // 5 ** q) if q <= 21 else (1, 0)
        else:
            q = log10_pow5(-e2) - (-e2 > 1)
            e10, i = q + e2, -e2 - q
            bits = (5 ** i).bit_length()
            mult = 5 ** i >> bits - 125 if bits >= 125 else 5 ** i << 125 - bits
            shift, inv, lim = q - bits + 125, 1, 0
            tables["small"][biased] = q <= 1
            tables["pow2"][biased] = 0 if q <= 1 else (1 << q) - 1 if q < 63 else _ALL
        assert 64 < shift < 128
        for name, value in (("high", mult >> 64), ("low", mult & _ALL), ("shift", shift - 64),
                            ("e10", e10), ("inv", inv), ("lim", lim)):
            tables[name][biased] = value
    return tables


_RYU = _exponent_tables()
# the least biased exponent at which a 5**q test or an exact half-way point
# applies (values from 2**50 up); below it only the 2**q test does
_RARE_EXPONENT = 1073
_INV5, _LIM5 = _U64(pow(5, -1, 1 << 64)), _U64(_ALL // 5)
_POW10 = _words(10 ** k for k in range(20))
_LOW32, _TEN = _U64(0xFFFFFFFF), _U64(10)


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


def _high_word(x0, x1, y0, y1):
    """The high word of (x1:x0) * (y1:y0), for 32-bit limbs and x below
    2**55; `y0` and `y1` are overwritten."""
    mid = x0 * y0
    mid >>= 32
    high = x0 * y1
    y0 *= x1
    mid += y0
    mid += high & _LOW32
    mid >>= 32
    high >>= 32
    high += mid
    y1 *= x1
    high += y1
    return high


def _drop_digits(high, low):
    """How many trailing digits each of `high` > `low` can lose before the
    two agree on what is left.  Once they agree they agree on every shorter
    prefix, so a cell that stops dropping is done."""
    high, low = high // _TEN, low // _TEN
    more = high > low
    dropped = more.astype(np.int64)
    while more.any():
        high //= _TEN
        low //= _TEN
        np.greater(high, low, out=more)
        dropped += more
    return dropped


def _shortest(bits):
    """Ryu's shortest digits of the finite nonzero floats whose bits are
    `bits`, as (digits, e) with each float's repr value digits * 10**e;
    other cells give values that are not read."""
    exponent = (bits >> _U64(52)).view(np.int64)
    exponent &= 0x7FF
    fraction = bits & _U64((1 << 52) - 1)
    mv = fraction | (exponent != 0).astype(np.uint64) << _U64(52)
    even = (mv & _U64(1)) == 0
    mv <<= 2
    x0, x1 = mv & _LOW32, mv >> _U64(32)
    mult_high, mult_low = _take(_RYU["high"], exponent), _take(_RYU["low"], exponent)
    # mv * mult = (high:low) * 2**64 + below, exactly
    low = _high_word(x0, x1, mult_low & _LOW32, mult_low >> _U64(32))
    high = _high_word(x0, x1, mult_high & _LOW32, mult_high >> _U64(32))
    low_of_high = mult_high * mv
    low += low_of_high
    high += low < low_of_high
    below = mult_low * mv
    shift = _take(_RYU["shift"], exponent)
    unshift = _U64(64) - shift

    def scaled(high, low):
        high <<= unshift
        low >>= shift
        high |= low
        return high
    # the half-way points: (mv + 2) * mult and (mv - 1 - mmshift) * mult,
    # where mmshift is 0 only for a power of two above the least normal
    high2, low2 = (mult_high << _U64(1)) | (mult_low >> _U64(63)), mult_low << _U64(1)
    carry = high2 + (below + low2 < below)
    up = low + carry
    vp = scaled(high + (up < low), up)
    mmshift = (fraction != 0) | (exponent <= 1)
    if not mmshift.all():
        low2 = np.where(mmshift, low2, mult_low)
        high2 = np.where(mmshift, high2, mult_high)
    borrow = high2 + (below < low2)
    vm = scaled(high - (low < borrow), low - borrow)
    vr = scaled(high, low)
    # whether vr and vm are exact, so that digits dropped from them are zeros
    vr_zeros = (mv & _take(_RYU["pow2"], exponent)) == 0
    vm_zeros = None
    if exponent.max() >= _RARE_EXPONENT:
        inv, lim = _take(_RYU["inv"], exponent), _take(_RYU["lim"], exponent)
        mod5 = mv * _INV5 <= _LIM5
        vr_zeros |= mod5 & (mv * inv <= lim)
        small = _take(_RYU["small"], exponent)
        vm_zeros = even & ((~mod5 & ((mv - _U64(1) - mmshift) * inv <= lim)) | (small & mmshift))
        vp -= ~even & ((~mod5 & ((mv + _U64(2)) * inv <= lim)) | small)
    dropped = _drop_digits(vp, vm)
    # vr without the dropped digits, and the last digit it dropped
    power = _take(_POW10, dropped - 1)    # 1 where none is dropped
    kept = vr // power
    if vr_zeros.any():
        vr_zeros &= kept * power == vr
    vr = kept // _TEN
    last = kept - vr * _TEN
    none = dropped == 0
    if none.any():
        vr[none], last[none] = kept[none], 0
    power = _take(_POW10, dropped)
    kept = vm // power
    if vm_zeros is not None and vm_zeros.any():
        # an exact lower bound may lose further zeros
        vm_zeros &= kept * power == vm
        vm = kept
        while True:
            fewer = vm // _TEN
            more = vm_zeros & (fewer * _TEN == vm)
            if not more.any():
                break
            kept = vr // _TEN
            vr_zeros &= ~more | (last == 0)
            last = np.where(more, vr - kept * _TEN, last)
            vr = np.where(more, kept, vr)
            vm = np.where(more, fewer, vm)
            dropped += more
        round_up = (vr == vm) & (~even | ~vm_zeros)
    else:
        vm = kept
        round_up = vr == vm
    if vr_zeros.any():
        # exactly half-way: round to even
        last[vr_zeros & (last == 5) & ((vr & _U64(1)) == 0)] = 4
    round_up |= last >= 5
    vr += round_up
    return vr, dropped + _take(_RYU["e10"], exponent)


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
