"""Oscilloscope trace synthesis, parsing and edge extraction.

A trace holds two channels of voltage samples on a fixed sampling grid
(400 ps by default, 2.5e6 points per channel for a 1 ms capture).  Events are
recovered by rising-edge extraction: each run of samples above the threshold
contributes one event at its first sample.  The threshold is a setting of
``ingest_trace`` alone; a trace and its files hold only the samples and the
sampling period.

Two file forms are supported:

* CSV with header ``time_s,ch1_V,ch2_V`` and one row per sample.  The writer
  gives sample k's time as the exact decimal k times ``repr(sampling_period)``:
  with that repr's digits m and exponent x, the integer k*m followed by
  ``e{x}`` (``0e-10``, ``4e-10``, ``8e-10``, ``12e-10``, ... at 400 ps).  A
  time reads back as the double nearest that decimal instant, so the first
  step is the period itself.  The voltages are the shortest ``repr`` of the
  float32 samples widened to float64, so they read back exactly.  The writer
  works in 16k-row chunks, each built as one uint8 matrix and written with
  one ``tobytes()``.  It formats the ``e{x},ch1,ch2`` tail of each distinct
  pair of sample bit patterns in a chunk once, since a capture holds few
  voltage levels, and rows gather their tails from a padded byte table.  The
  digits of k*m fill the leading columns right-aligned, by repeated ``% 10``
  and ``// 10`` on integer arrays.  k*m is carried as two base-10**9 limbs,
  which stay within int64 for any k*m below about 9.2e27, so for more than
  9e10 samples at any period.  Where a chunk's rows differ in width (its
  digit count changes, or its tails differ in length), one boolean keep-mask
  drops the leading zeros and the padding.  Files written before the times
  became exact decimals hold ``repr(k * sampling_period)`` and read the
  same.  The reader decodes UTF-8.  It takes the sampling period as
  ``times[1] - times[0]`` and rejects, naming the first bad line, a row
  without exactly three fields (a blank line included), a field that
  ``float()`` cannot parse, a time that is not finite, a first step that is
  not > 0, a later step more than half a period away from the first, and a
  voltage that is not finite or does not fit a float32.  A file with fewer
  than two samples, or with bytes that are not UTF-8, is rejected too.  The
  body is parsed by one ``np.loadtxt`` call on the file; a row loop with the
  same verdicts takes over where that call cannot decide, and names the line;
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
import os
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
            _, first, which = np.unique(pairs, return_index=True, return_inverse=True)
            tails = list(map(tail, ch1[first].tolist(), ch2[first].tolist()))
            fh.write(_csv_rows(start, step, tails, which))


# the base of the two limbs that carry a time through int64 arithmetic
_LIMB = 10**9


def _csv_rows(start: int, step: int, tails: list[str], which: np.ndarray) -> bytes:
    """Rows ``start`` .. ``start + len(which) - 1`` as bytes: row k is the decimal
    digits of k*step followed by ``tails[which[k - start]]``.

    The rows are one uint8 matrix: the times' digits right-aligned in the
    leading columns, each row's tail gathered from a padded byte table after
    them.  A time is carried as ``hi * 10**9 + lo``, so both limbs fit int64
    for any time below about 9.2e27.  Where rows differ in width, a keep-mask
    drops the leading zeros and the tails' padding.
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
        for col in range(right - 1, right - count - 1, -1):
            value, digit = np.divmod(value, 10)
            digit += ord("0")
            rows[:, col] = digit
        right -= count
    if lead == width and tail_len.min() == tail_width:
        return rows.tobytes()
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
    return rows.ravel()[np.take(masks, code).view(bool)].tobytes()


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
_COUNT_CHUNK_BYTES = 1 << 20


def _parse_csv_bulk(path) -> np.ndarray | None:
    """The body as an (n, 3) float64 array, or None where only the row loop can decide.

    ``np.loadtxt`` reads the file itself.  It skips blank lines, which the row
    loop rejects, and warns on an empty body.  So it starts only from a
    non-blank first line, and its rows must number the body's lines, counted
    from the bytes.  A file with a ``\\r`` in it goes to the row loop, because
    ``loadtxt`` and the ``csv`` module split such lines differently.  Then
    ``loadtxt`` accepts no file that the row loop rejects, and gives each field
    it parses the value ``float()`` gives.
    """
    if Path(path).suffix in _COMPRESSED_SUFFIXES:
        return None
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():  # the header, checked already
            return None
        chunk = fh.read(_COUNT_CHUNK_BYTES)
        if chunk[:1] in (b"", b"\n"):
            return None
        lines = 0
        while chunk:
            if b"\r" in chunk:
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
            chunk = fh.read(_COUNT_CHUNK_BYTES)
    lines += last != b"\n"
    try:
        data = np.loadtxt(
            os.path.abspath(path),  # absolute, so never taken for a URL
            delimiter=",",
            comments=None,
            skiprows=1,
            ndmin=2,
            encoding="utf-8",
        )
    except ValueError:
        return None
    if data.shape != (lines, 3):
        return None
    return data


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
    bad_time = ~np.isfinite(times)
    bad_step = np.zeros(len(times), dtype=bool)
    # non-finite values are reported below, so their arithmetic must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        channels = [data[:, 1].astype(np.float32), data[:, 2].astype(np.float32)]
        # one temporary for the steps' distance from the period, worked in place
        off = np.diff(times)
        off -= period
        np.abs(off, out=off)
        bad_step[1:] = ~(off <= period / 2)
    bad_step[1] |= not period > 0
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
        fh.write(data.tobytes())


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
