"""Oscilloscope trace synthesis, parsing and edge extraction.

A trace holds two channels of voltage samples on a fixed sampling grid
(400 ps by default, 2.5e6 points per channel for a 1 ms capture).  Events are
recovered by rising-edge extraction: each run of samples above the threshold
contributes one event at its first sample.  The threshold is a setting of
``ingest_trace`` alone; a trace and its files hold only the samples and the
sampling period.

Two file forms are supported:

* CSV with header ``time_s,ch1_V,ch2_V`` and one row per sample.  The writer
  gives sample k's time as the exact decimal k times
  ``repr(sampling_period)``: with that repr's digits m and exponent x, the
  integer k*m followed by ``e{x}`` (``0e-10``, ``4e-10``, ``8e-10``,
  ``12e-10``, ... at 400 ps).  A time reads back as the double nearest that
  decimal instant, so the first step is the period itself.  The voltages are
  the shortest ``repr`` of the float32 samples widened to float64, so they
  read back exactly.  The writer works in 16k-row chunks, each built as one
  uint8 matrix and written from its buffer, without a copy.  It formats the
  ``e{x},ch1,ch2`` tail of each distinct pair of sample bit patterns in a
  chunk once, since a capture holds few voltage levels: the chunk's first
  pair is tail 0, and only the rows whose pair differs from it are sorted
  for the others.  Rows gather their tails from a padded byte table.  The
  digits of k*m fill the leading columns right-aligned, four at a time from
  a table of the bytes ``0000`` to ``9999``, and the leading one to three
  digits of each limb one at a time.  k*m is carried as two base-10**9
  limbs, which stay within int64 for any k*m below about 9.2e27, so for more
  than 9e10 samples at any period.  Where a chunk's rows differ in width
  (its digit count changes, or its tails differ in length), one boolean
  keep-mask drops the leading zeros and the padding.  Files written before
  the times became exact decimals hold ``repr(k * sampling_period)`` and
  read the same.  The reader decodes UTF-8.  It takes the sampling period as
  ``times[1] - times[0]`` and rejects, naming the first bad line, a row
  without exactly three fields (a blank line included), a field that
  ``float()`` cannot parse, a time that is not finite, a first step that is
  not > 0, a later step more than half a period away from the first, and a
  voltage that is not finite or does not fit a float32; whole-array
  reductions pass a good file, and the per-line masks that find the first
  bad line are built only when one fails.  A file with fewer than two
  samples, or with bytes that are not UTF-8, is rejected too.  The body
  takes up to three routes, chosen from its bytes, all with the same values
  and verdicts.  The exact path reads the body once, in 1 MiB chunks of
  whole lines, as the writer builds it: a run of lines that repeat one byte
  layout, digits aside, is one uint8 matrix, and each field's digits become
  its double through one matrix product, exact in float32, and one multiply
  or divide by a power of ten.  It takes fields of at most 15 digits with a
  power of ten within +-22, which that one rounding reads exactly as
  ``float()`` does, and only the bytes ``0-9 . - e ,`` and newline.  Each
  run costs a fixed Python time, so the exact path stops where the runs grow
  shorter than 160 lines, a little above where it stops saving time over
  ``np.loadtxt``, and at a line it does not take (a longer field or another
  byte, as in a noise record of 17-digit voltages).  One ``np.loadtxt`` call
  then reads the rest, from the line where the exact path stopped.
  A row loop takes a file with a ``\\r`` or a blank line, and one that
  ``loadtxt`` cannot read, and names the bad line;
* raw packed little-endian float32 with a 16-byte header: the magic
  ``PSTRACE1`` followed by two little-endian uint32 words (sample count,
  channel count), then count*channels floats interleaved per sample
  (ch1, ch2, ch1, ch2, ...).  The reader rejects a header that is short, a
  magic or channel count (2) that differs, a payload of another length, and
  a sample that is not finite, naming its byte offset.

A ``TraceFile`` refuses a sampling period that is not a finite normal double
above 0: the decimal ``repr`` of a subnormal one can be 1.2 % off its value.
The CSV writer refuses, before it opens the file, a trace whose last time
would read back as infinite, and ``ingest_trace`` a trace with a rising edge
whose time is infinite.
Every rejection raises ``TraceParseError``, which ``pstream ingest`` turns
into exit code 3.
"""

from __future__ import annotations

import csv
import math
import os
import re
import struct
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .detection import PS_PER_S, PulseTrain
from .errors import TraceParseError

MAGIC = b"PSTRACE1"
HEADER = struct.Struct("<8sII")
DEFAULT_SAMPLING_PERIOD = 400e-12
DEFAULT_THRESHOLD = 2.0
# the volts a synthesized sample reads while a pulse covers it
AMPLITUDE = 4.0


@dataclass(frozen=True)
class TraceFile:
    """Two-channel sampled voltage record."""

    ch1: np.ndarray
    ch2: np.ndarray
    sampling_period: float = DEFAULT_SAMPLING_PERIOD

    def __post_init__(self):
        ch1 = np.asarray(self.ch1, dtype=np.float32)
        ch2 = np.asarray(self.ch2, dtype=np.float32)
        object.__setattr__(self, "ch1", ch1)
        object.__setattr__(self, "ch2", ch2)
        if ch1.shape != ch2.shape or ch1.ndim != 1:
            raise TraceParseError("channels must be 1-d arrays of equal length")
        # the CSV times are decimal multiples of repr(period), which only a
        # finite normal double carries exactly
        if not sys.float_info.min <= self.sampling_period <= sys.float_info.max:
            raise TraceParseError(
                "sampling period must be > 0 and a finite normal double, "
                f"got {self.sampling_period!r}"
            )

    @property
    def n_samples(self) -> int:
        return int(self.ch1.size)


def synthesize_trace(
    train_ch1: PulseTrain,
    train_ch2: PulseTrain,
    sampling_period: float = DEFAULT_SAMPLING_PERIOD,
    duration: float | None = None,
) -> TraceFile:
    """Rasterize two pulse trains onto the sampling grid.

    A sample reads ``AMPLITUDE`` volts whenever any pulse covers its instant.
    """
    if duration is None:
        duration = max(train_ch1.bin_length, train_ch2.bin_length) / PS_PER_S
    n = int(round(duration / sampling_period))
    dt_ps = sampling_period * PS_PER_S
    channels = []
    for train in (train_ch1, train_ch2):
        v = np.zeros(n, dtype=np.float32)
        first = np.ceil(train.starts / dt_ps).astype(np.int64)
        last = np.ceil((train.starts + train.duration) / dt_ps).astype(np.int64)
        for a, b in zip(np.clip(first, 0, n).tolist(), np.clip(last, 0, n).tolist()):
            v[a:b] = AMPLITUDE
        channels.append(v)
    return TraceFile(ch1=channels[0], ch2=channels[1], sampling_period=sampling_period)


def _rising_edges(samples: np.ndarray, threshold: np.float32, dt: float) -> np.ndarray:
    above = samples > threshold
    if not above.any():
        return np.empty(0, dtype=float)
    edges = np.flatnonzero(above & ~np.concatenate(([False], above[:-1])))
    with np.errstate(over="ignore"):  # refused below
        times = edges * dt
    if not np.isfinite(times[-1]):  # the last edge is the latest
        raise TraceParseError(
            f"rising edge at sample {edges[-1]} lies past the largest double "
            f"at sampling period {dt!r} s"
        )
    return times


def ingest_trace(
    trace: TraceFile, threshold: float = DEFAULT_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Event times (seconds) per channel, one per run of samples above
    ``threshold`` volts; refuses a trace with an edge whose time overflows a
    double.

    The samples are float32, and the threshold is compared as the float32
    nearest it; one beyond the float32 range acts as an infinite level.
    """
    with np.errstate(over="ignore"):  # past the float32 range, the level is inf
        level = np.float32(threshold)
    return (
        _rising_edges(trace.ch1, level, trace.sampling_period),
        _rising_edges(trace.ch2, level, trace.sampling_period),
    )


_CSV_HEADER = ["time_s", "ch1_V", "ch2_V"]
# rows formatted and written per chunk, so memory stays bounded for any capture
_CSV_CHUNK_ROWS = 16_384


def write_trace_csv(trace: TraceFile, path: str | Path) -> None:
    """Write ``trace`` as CSV, one row per sample (format in the module docstring)."""
    # the period's shortest repr as digits m and exponent x: row k's time is
    # the exact decimal k*m e x, formatted from integers
    _, digits, exponent = Decimal(repr(float(trace.sampling_period))).normalize().as_tuple()
    step = int("".join(map(str, digits)))
    tail = f"e{exponent},{{!r}},{{!r}}\n".format
    # the reader refuses an infinite time, so refuse to write one
    if not float(f"{(trace.n_samples - 1) * step}e{exponent}") <= sys.float_info.max:
        raise TraceParseError(
            f"{path}: {trace.n_samples} samples at sampling period "
            f"{trace.sampling_period!r} s end past the largest double"
        )
    with open(path, "wb") as fh:
        fh.write(",".join(_CSV_HEADER).encode() + b"\n")
        for start in range(0, trace.n_samples, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, trace.n_samples)
            ch1, ch2 = trace.ch1[start:stop], trace.ch2[start:stop]
            # each row's (ch1, ch2) bit pattern as one key: keyed by bits, not
            # value, -0.0 keeps its own tail and a NaN has a key
            pairs = np.stack((ch1, ch2), axis=1).view(np.uint64)[:, 0]
            # row 0's key is tail 0, and only the rows off it are sorted: in a
            # capture, the few samples a pulse covers
            other = np.flatnonzero(pairs != pairs[0])
            _, first, inverse = np.unique(pairs[other], return_index=True, return_inverse=True)
            which = np.zeros(pairs.size, np.intp)
            which[other] = inverse + 1
            first = np.concatenate(([0], other[first]))
            tails = list(map(tail, ch1[first].tolist(), ch2[first].tolist()))
            fh.write(_csv_rows(start, step, tails, which))


# the base of the two limbs that carry a time through int64 arithmetic
_LIMB = 10**9
# the time digits written per column group, and the bytes b"0000" .. b"9999"
# of each group's value, one 4-byte void each (the digits of d are row d of
# the 10x10x10x10 index grid)
_GROUP = 10**4
_GROUP_BYTES = np.ascontiguousarray(
    np.indices((10, 10, 10, 10), np.uint8).reshape(4, _GROUP).T + ord("0")
).view("V4")[:, 0]


def _csv_rows(start: int, step: int, tails: list[str], which: np.ndarray) -> np.ndarray:
    """Rows ``start`` .. ``start + len(which) - 1`` as a uint8 array of their
    bytes: row k is the decimal digits of k*step followed by
    ``tails[which[k - start]]``.

    The rows are one uint8 matrix: the times' digits right-aligned in the
    leading columns, each row's tail gathered from a padded byte table after
    them.  A time is carried as ``hi * 10**9 + lo``, so both limbs fit int64
    for any time below about 9.2e27.  Each limb's digits are written four
    columns at a time from the right, from ``_GROUP_BYTES``, and its leading
    one to three digits one column at a time.  Where rows differ in width, a
    keep-mask drops the leading zeros and the tails' padding.
    """
    n = which.size
    width = len(str((start + n - 1) * step))  # digits of the chunk's largest time
    lead = len(str(start * step))  # and of its smallest
    tail_len = np.fromiter(map(len, tails), np.intp, len(tails))
    tail_width = int(tail_len.max())
    table = np.array(tails, dtype=f"S{tail_width}")  # ASCII, padded with NUL bytes
    rows = np.empty((n, width + tail_width), np.uint8)
    rows[:, width:].view(table.dtype)[:, 0] = np.take(table, which)
    hi_start, lo_start = divmod(start * step, _LIMB)
    step_hi, step_lo = divmod(step, _LIMB)
    i = np.arange(n, dtype=np.int64)
    lo = i * step_lo
    lo += lo_start
    limbs = [(lo, width)]
    if width > 9:
        hi, lo = np.divmod(lo, _LIMB)
        hi += i * step_hi
        hi += hi_start
        limbs = [(lo, 9), (hi, width - 9)]
    right = width
    for value, count in limbs:
        if count <= 9:  # below 10**9, so uint32 holds it
            value = value.astype(np.uint32)
        groups = count // 4
        for col in range(right - 4, right - 4 * groups - 1, -4):
            # value % 10**4 as value less 10**4 times the quotient: a division
            # by a constant is vectorized, and % is not
            high = value // _GROUP
            value -= high * _GROUP
            rows[:, col : col + 4].view(_GROUP_BYTES.dtype)[:, 0] = np.take(_GROUP_BYTES, value)
            value = high
        for col in range(right - 4 * groups - 1, right - count - 1, -1):
            value, digit = np.divmod(value, 10)
            digit += ord("0")
            rows[:, col] = digit
        right -= count
    if lead == width and tail_len.min() == tail_width:
        return rows
    # each row's class: its digit count and its tail's length, whose kept
    # columns one mask row holds; the digit count rises by one at
    # k = ceil(10**d / step)
    lengths, length_class = np.unique(tail_len, return_inverse=True)
    code = length_class[which]
    for d in range(lead, width):
        code[-(-(10**d) // step) - start :] += lengths.size
    col = np.arange(width + tail_width)
    digit_count = np.arange(lead, width + 1)[:, None, None]
    masks = (col >= width - digit_count) & (col < width + lengths[:, None])
    masks = np.frombuffer(masks.tobytes(), f"V{col.size}")
    return rows.ravel()[np.take(masks, code).view(bool)]


def read_trace_csv(path: str | Path) -> TraceFile:
    """Read a CSV trace written by ``write_trace_csv`` (rules in the module docstring)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            if next(csv.reader(fh), None) != _CSV_HEADER:
                raise TraceParseError(f"{path}: line 1: expected header time_s,ch1_V,ch2_V")
            data = _parse_csv_bulk(path)
            if data is None:
                data = _parse_csv_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    return _trace_from_csv_columns(path, data)


# suffixes of the files that np.loadtxt decompresses when given their path
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")
_CHUNK_BYTES = 1 << 20
# the body bytes converted per step at most, which bounds a step's arrays
# for any line width
_STEP_BYTES = 1 << 18
# a step of the exact path costs a fixed Python time, about what it saves
# over np.loadtxt on 130 lines of 15 bytes (the two take equal time on a body
# of 128-line runs); each step earns its lines less this many, and the rest of
# the file goes to np.loadtxt once the credit, capped at _CREDIT_STEPS steps'
# worth, runs out.  Set above the crossover, so that a file whose runs stop
# the exact path late has been read faster up to there
_STEP_LINES = 160
_CREDIT_STEPS = 8
# a field the exact path takes: sign, digits, point, digits, exponent (its
# few digits keep int() fast and within its digit limit)
_EXACT_FIELD = re.compile(rb"(-?)([0-9]*)(?:\.([0-9]*))?(?:e(-?[0-9]{1,3}))?")
# a field's digits go through float32 in groups this long, below 2**24 so exact
_GROUP_DIGITS = 7
# the bytes a run's first check covers, after which the checks double
_FIRST_CHECK = 1 << 12
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


def _parse_csv_bulk(path) -> np.ndarray | None:
    """The body as an (n, 3) float64 array, or None where only the row loop can decide.

    The exact path (``_parse_exact``) reads the body in one pass.  A file with
    a ``\\r`` in it goes to the row loop, because ``loadtxt`` and the ``csv``
    module split such lines differently.  The exact path stops at a line with
    a ``\\r``, as at any byte it does not take; where it stopped before the
    end, the rest is counted and checked for ``\\r``, and ``np.loadtxt`` reads
    the lines from the one where it stopped.  ``loadtxt`` gets the file's
    path: a path, unlike an open file, lets it read in large blocks rather
    than line by line.  Given a path it also decompresses by suffix, so a file
    with such a suffix goes to the row loop instead.  ``loadtxt`` skips blank
    lines, which the row loop rejects, so the exact path sends a blank line to
    the row loop, and ``loadtxt``'s rows must number the lines it was given.
    Then neither path accepts a file that the row loop rejects, and both give
    each field the value ``float()`` gives.
    """
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():  # the header, checked already
            return None
        read = _parse_exact(fh)
        if read is None:
            return None
        data, stop = read
        if stop is None:
            return data
        fh.seek(stop)
        rest = 0  # the lines from the one where the exact path stopped
        while chunk := fh.read(_CHUNK_BYTES):
            if b"\r" in chunk:
                return None
            rest += chunk.count(b"\n")
            last = chunk[-1:]
        rest += last != b"\n"  # the exact path stopped at a line, so there is one
    if Path(path).suffix in _COMPRESSED_SUFFIXES:
        return None
    row = len(data)
    try:
        rest_rows = np.loadtxt(
            os.path.abspath(path),  # absolute, so never taken for a URL
            delimiter=",",
            comments=None,
            skiprows=1 + row,
            ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return None
    if rest_rows.shape != (rest, 3):
        return None
    if not row:
        return rest_rows
    data.resize((row + rest, 3), refcheck=False)  # realloc: the rows stay in place
    data[row:] = rest_rows
    return data


def _parse_exact(fh) -> tuple[np.ndarray, int | None] | None:
    """The rows that the exact path reads from ``fh`` at the body's start,
    and the offset in the file of the first line it left, None where it read
    them all; None for an empty body or a blank line.

    The body is read in chunks of whole lines.  From a line's start, the lines
    of its length are one (rows, width) uint8 view of the chunk, and the
    leading rows that repeat that line's layout (``_Layout``) form a run,
    converted in one step.  No Python work is done per line.  The rows go
    into an array sized from the body's length and its first line's width.
    It is grown where later lines are shorter, and cut to the rows read at the
    end, both by ``resize`` (a ``realloc``) rather than by a copy into a new
    array.  Rows past an estimate that was too large are never written, so
    their pages never count towards the resident set.
    """
    buf = bytearray(_CHUNK_BYTES)
    chunk = np.frombuffer(buf, np.uint8)
    layouts = {}  # the last layout made from a line, by its bytes with every digit 0
    credit = cap = _CREDIT_STEPS * _STEP_LINES
    body = fh.tell()
    length = os.fstat(fh.fileno()).st_size - body
    data = np.empty((0, 3))
    row = held = offset = 0  # offset: the body's bytes before buf[0]

    def rows_read(stop):
        data.resize((row, 3), refcheck=False)  # no view of data is left
        return data, stop

    while True:
        size = held + fh.readinto(memoryview(buf)[held:])
        if size == held:  # the end of the file
            if not size:
                return rows_read(None) if offset else None
            buf[size] = ord("\n")  # the last line, without its newline (held < a chunk)
            size += 1
        end = buf.rfind(b"\n", 0, size) + 1
        if not end:  # a line longer than a chunk
            return rows_read(body + offset)
        pos = 0
        while pos < end:
            width = buf.find(b"\n", pos) + 1 - pos
            if width == 1:  # a blank line, which loadtxt would skip
                return None
            most = min(end - pos, _STEP_BYTES) // width
            line = bytes(buf[pos : pos + width])
            key = line.translate(_ZERO_DIGITS)
            layout = layouts.get(key)
            # a layout of the same key fits unless the line's exponents differ
            n, digits = layout.run(chunk[pos:end], most) if layout else (0, None)
            if not n:
                layout = layouts[key] = _Layout.of(line)
                if layout is None:
                    return rows_read(body + offset + pos)
                n, digits = layout.run(chunk[pos:end], most)
            credit = min(credit + n - _STEP_LINES, cap)
            if credit < 0:
                return rows_read(body + offset + pos)
            if row + n > len(data):  # room for the lines left, at this run's width
                rows = row + n + max(length - offset - pos - n * width, 0) // width + 1
                if row:
                    data.resize((rows, 3), refcheck=False)  # zeroes the rows it adds
                else:
                    data = np.empty((rows, 3))
            layout.convert(digits, data[row : row + n])
            row += n
            pos += n * width
        held = size - end
        chunk[:held] = chunk[end:size]
        offset += end


class _Layout:
    """The byte layout of a body line on the exact path.

    Its three fields are each a sign, digits, a point, digits and an exponent,
    with at most 15 digits and a power of ten within +-22: such a decimal is
    its digits as an integer, an exact double, times or divided by an exact
    power of ten, and that one IEEE operation rounds as ``float()`` does
    (Clinger, PLDI 1990).  A line repeats the layout when it equals the line
    the layout was made from in every byte but the digit columns, which hold
    0-9.
    """

    def __init__(self, line: bytes, fields: list):
        self.width = len(line)
        self.lo = np.frombuffer(line, np.uint8).copy()
        self.span = np.zeros(self.width, np.uint8)
        groups = []  # the column weights of each group of digits
        self.fields = []  # per field: its groups, most significant first; op; scale
        for columns, power, negative in fields:
            self.lo[columns] = ord("0")
            self.span[columns] = 9
            # every group but the most significant holds _GROUP_DIGITS digits
            cuts = range(len(columns) % _GROUP_DIGITS or _GROUP_DIGITS, len(columns), _GROUP_DIGITS)
            first = len(groups)
            for group in np.split(columns, cuts):
                weights = np.zeros(self.width, np.float32)
                weights[group] = 10.0 ** np.arange(len(group) - 1, -1, -1)
                groups.append(weights)
            scale = float(10 ** abs(power)) * (-1.0 if negative else 1.0)
            op = np.multiply if power >= 0 else np.divide
            self.fields.append((range(first, len(groups)), op, scale))
        # (width, groups), so a step's (rows, width) digits times it are a
        # row-major product
        self.weights = np.array(groups).T.copy()
        # the checks for as many rows as fill _FIRST_CHECK bytes: a longer
        # block is checked as rows of this tile, a shorter one by its start
        rows = max(1, _FIRST_CHECK // self.width)
        self.lo, self.span = np.tile(self.lo, rows), np.tile(self.span, rows)

    @classmethod
    def of(cls, line: bytes) -> _Layout | None:
        """The layout of ``line`` (ending in a newline), or None off the exact path."""
        texts = line[:-1].split(b",")
        if len(texts) != 3:
            return None
        fields = []
        start = 0
        for text in texts:
            match = _EXACT_FIELD.fullmatch(text)
            if match is None:
                return None
            sign, whole, fraction, exponent = match.groups()
            fraction = fraction or b""
            power = int(exponent or 0) - len(fraction)
            if not 0 < len(whole) + len(fraction) <= 15 or abs(power) > 22:
                return None
            at = start + len(sign)
            columns = list(range(at, at + len(whole)))
            columns += range(at + len(whole) + 1, at + len(whole) + 1 + len(fraction))
            fields.append((columns, power, bool(sign)))
            start += len(text) + 1
        return cls(line, fields)

    def run(self, rows: np.ndarray, most: int) -> tuple[int, np.ndarray]:
        """How many of the first ``most`` rows of ``rows`` (bytes from a line's
        start) repeat the layout, and their digits as a (count, width) array.

        The rows are checked in windows that double from one tile, so a run
        costs its bytes, at most twice over, and one tile.
        """
        width, tile = self.width, self.lo.size
        digits = np.empty(most * width, np.uint8)
        fits = np.empty(most * width, bool)
        n = 0
        window = tile // width
        while n < most:
            stop = min(n + window, most)
            view = rows[n * width : stop * width]
            part = digits[n * width : stop * width]
            ok = fits[: view.size]
            cut = view.size // tile * tile
            if cut:
                shape = (-1, tile)
                np.subtract(view[:cut].reshape(shape), self.lo, out=part[:cut].reshape(shape))
                np.less_equal(part[:cut].reshape(shape), self.span, out=ok[:cut].reshape(shape))
            if cut < view.size:
                left = view.size - cut
                np.subtract(view[cut:], self.lo[:left], out=part[cut:])
                np.less_equal(part[cut:], self.span[:left], out=ok[cut:])
            if not ok.all():
                n += int(ok.argmin()) // width
                break
            n = window = stop
        return n, digits[: n * width].reshape(n, width)

    def convert(self, digits: np.ndarray, out: np.ndarray) -> None:
        """Write the doubles of the rows whose ``digits`` fit into ``out``."""
        sums = digits.astype(np.float32) @ self.weights  # exact, below 10**7
        for column, (groups, op, scale) in enumerate(self.fields):
            value = sums[:, groups[0]]
            if len(groups) > 1:  # below 10**15, so exact in float64
                value = value.astype(np.float64)
                for group in groups[1:]:
                    value *= 10.0**_GROUP_DIGITS
                    value += sums[:, group]
            op(value, scale, out=out[:, column], dtype=np.float64)


def _parse_csv_rows(path, rows) -> np.ndarray:
    """The body row by row; names the first row that has not three parsable fields."""
    values = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise TraceParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
        try:
            values.append([float(field) for field in row])
        except ValueError as exc:
            raise TraceParseError(f"{path}: line {lineno}: {exc}") from exc
    return np.array(values, dtype=np.float64).reshape(-1, 3)


def _trace_from_csv_columns(path, data: np.ndarray) -> TraceFile:
    """Check the parsed rows (module docstring) and build the trace from them."""
    if len(data) < 2:
        raise TraceParseError(f"{path}: need at least two samples to infer the sampling period")
    times = data[:, 0]
    period = float(times[1]) - float(times[0])
    # non-finite values are reported below, so their arithmetic must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        channels = [data[:, 1].astype(np.float32), data[:, 2].astype(np.float32)]
        # one temporary for the steps' distance from the period, worked in place
        off = np.diff(times)
        off -= period
        np.abs(off, out=off)
        # all good, decided by reductions: a NaN makes a max or min NaN, which
        # fails its test; a finite period needs finite first two times, and
        # finite steps keep every later time finite
        if (
            0 < period < math.inf
            and off.max() <= period / 2
            and all(math.isfinite(c.min()) and math.isfinite(c.max()) for c in channels)
        ):
            return TraceFile(ch1=channels[0], ch2=channels[1], sampling_period=period)
        # else the per-line masks, to name the first bad line
        bad_step = np.zeros(len(times), dtype=bool)
        bad_step[1:] = ~(off <= period / 2)
    bad_step[1] |= not period > 0
    bad_time = ~np.isfinite(times)
    bad_sample = ~(np.isfinite(channels[0]) & np.isfinite(channels[1]))
    bad = bad_time | bad_step | bad_sample
    if bad.any():
        k = int(np.argmax(bad))
        where = f"{path}: line {k + 2}"
        now, before = float(times[k]), float(times[k - 1])
        if bad_time[k]:
            raise TraceParseError(f"{where}: time {now!r} is not finite")
        if bad_step[k] and not period > 0:
            raise TraceParseError(f"{where}: time {now!r} does not increase from {before!r}")
        if bad_step[k]:
            raise TraceParseError(
                f"{where}: time {now!r} is not one sampling period ({period!r} s, "
                f"from the first two rows) after {before!r}"
            )
        column = 1 if np.isfinite(channels[0][k]) else 0
        raise TraceParseError(
            f"{where}: {_CSV_HEADER[1 + column]} value {float(data[k, 1 + column])!r} "
            "is not a finite float32"
        )
    return TraceFile(ch1=channels[0], ch2=channels[1], sampling_period=period)


def write_trace_raw(trace: TraceFile, path: str | Path) -> None:
    data = np.empty(2 * trace.n_samples, dtype="<f4")
    data[0::2] = trace.ch1
    data[1::2] = trace.ch2
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, trace.n_samples, 2))
        fh.write(data)


def read_trace_raw(path: str | Path, sampling_period: float = DEFAULT_SAMPLING_PERIOD) -> TraceFile:
    raw = Path(path).read_bytes()
    if len(raw) < HEADER.size:
        raise TraceParseError(f"{path}: truncated header at byte {len(raw)} (need {HEADER.size})")
    magic, count, channels = HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise TraceParseError(f"{path}: bad magic at byte 0: {magic!r}")
    if channels != 2:
        raise TraceParseError(f"{path}: byte 12: expected 2 channels, got {channels}")
    expected = HEADER.size + 4 * count * channels
    if len(raw) != expected:
        raise TraceParseError(
            f"{path}: payload ends at byte {len(raw)}, expected {expected} "
            f"({count} samples x {channels} channels)"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=HEADER.size)
    finite = np.isfinite(data)
    if not finite.all():
        k = int(np.argmin(finite))
        raise TraceParseError(
            f"{path}: byte {HEADER.size + 4 * k}: ch{k % 2 + 1} sample {float(data[k])!r} "
            "is not finite"
        )
    return TraceFile(ch1=data[0::2].copy(), ch2=data[1::2].copy(), sampling_period=sampling_period)
