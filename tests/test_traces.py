import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import math
import re
import struct
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstream import traces
from pstream.cli import main
from pstream.config import load_config
from pstream.detection import DetectorConfig, PulseTrain, detect_bin
from pstream.errors import TraceParseError
from pstream.interferometer import OpticalState
from pstream.source import sample_batch
from pstream.traces import (
    HEADER as RAW_HEADER,
    MAGIC,
    TraceFile,
    ingest_trace,
    read_trace_csv,
    read_trace_raw,
    synthesize_trace,
    write_trace_csv,
    write_trace_raw,
)

PS = 1


def detect_both(batch, optics, det, seed):
    """detect_bin with ``det`` as both D1 and D2, on 22 ns slots."""
    return detect_bin(batch, optics, (det, det), seed, slot_width=22e-9)


def regular_train(n, spacing_ps=3_700_000, duration_ps=10_000, start=50_000):
    starts = (start + np.arange(n) * spacing_ps).astype(np.int64)
    return PulseTrain(starts, duration_ps, bin_length=int(starts[-1] + duration_ps + 1_000_000))


def committed_capture(capture_s, seed):
    """A capture of ``capture_s`` seconds of the committed coincidence-scan config
    at phase 1, as the benchmark's trace round trip builds it."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "coincidence_scan.json")
    slots = round(capture_s / cfg.source.dead_time)
    optics = OpticalState(phase=1.0, intrinsic_visibility=cfg.optics.intrinsic_visibility)
    batch = sample_batch(cfg.source.mean_photon(), slots, seed=seed)
    trains = detect_bin(batch, optics, cfg.detectors, seed + 1, slot_width=cfg.source.dead_time)
    return synthesize_trace(*trains)


class TestSynthesizeIngest:
    def test_committed_capture_bytes_pinned(self):
        # four 100 us captures (4545 slots) of the committed coincidence-scan
        # config: the rising and falling edge of every pulse, on both channels
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "coincidence_scan.json")
        slots = round(100e-6 / cfg.source.dead_time)
        digest = hashlib.sha256()
        for k in range(4):
            optics = OpticalState(
                phase=k * math.pi / 2, intrinsic_visibility=cfg.optics.intrinsic_visibility
            )
            batch = sample_batch(cfg.source.mean_photon(), slots, seed=100 + k)
            trains = detect_bin(
                batch, optics, cfg.detectors, seed=200 + k, slot_width=cfg.source.dead_time
            )
            trace = synthesize_trace(*trains)
            digest.update(trace.ch1.tobytes() + trace.ch2.tobytes())
        assert digest.hexdigest() == (
            "a44ba8544e0497a068cea1cba4d1c6fe597c844bf08ce447567b4bd474816579"
        )

    def test_recovers_270_well_separated_pulses(self):
        # one millisecond of 270 pulses per channel on the 400 ps scope grid
        a = regular_train(270)
        b = regular_train(270, start=1_850_000)
        trace = synthesize_trace(a, b, duration=1e-3)
        assert trace.n_samples == 2_500_000
        ev1, ev2 = ingest_trace(trace)
        assert ev1.size == 270
        assert ev2.size == 270

    def test_all_zero_trace(self):
        trace = TraceFile(ch1=np.zeros(1000), ch2=np.zeros(1000))
        ev1, ev2 = ingest_trace(trace)
        assert ev1.size == 0 and ev2.size == 0

    def test_event_times_on_sampling_grid(self):
        a = regular_train(5)
        b = regular_train(3, start=777_000)
        trace = synthesize_trace(a, b)
        ev1, ev2 = ingest_trace(trace)
        dt = trace.sampling_period
        assert np.allclose(ev1 / dt, np.round(ev1 / dt))
        # edge positions track the pulse starts to within one sample
        assert np.max(np.abs(ev1 - a.starts * 1e-12)) <= dt

    def test_exact_count_recovery_from_detection_chain(self):
        batch = sample_batch(0.012, 45_454, seed=55)  # one millisecond of slots
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=0.882)
        train_a, train_b = detect_both(batch, optics, DetectorConfig(dark_rate=0.0), seed=56)
        trace = synthesize_trace(train_a, train_b)
        ev1, ev2 = ingest_trace(trace)
        assert ev1.size == len(train_a)
        assert ev2.size == len(train_b)

    def test_threshold_is_an_ingest_setting_alone(self):
        assert [f.name for f in dataclasses.fields(TraceFile)] == ["ch1", "ch2", "sampling_period"]
        for reader in (synthesize_trace, read_trace_csv, read_trace_raw):
            assert "threshold" not in inspect.signature(reader).parameters
        assert "amplitude" not in inspect.signature(synthesize_trace).parameters
        trace = synthesize_trace(regular_train(5), regular_train(3, start=777_000))
        assert set(np.unique(trace.ch1).tolist()) == {0.0, traces.AMPLITUDE}
        default = inspect.signature(ingest_trace).parameters["threshold"].default
        assert default == traces.DEFAULT_THRESHOLD

    @pytest.mark.parametrize(
        ("threshold", "edges"),
        [(0.5, [1]), (1.0, [2, 4]), (2.5, [2, 4]), (3.0, []), (-1.0, [0])],
    )
    def test_threshold_sets_the_edge_level(self, threshold, edges):
        # a sample counts only strictly above the threshold
        samples = [0.0, 1.0, 3.0, 1.0, 3.0, 3.0, 0.5]
        trace = TraceFile(ch1=samples, ch2=samples[::-1], sampling_period=1e-9)
        ev1, ev2 = ingest_trace(trace, threshold)
        assert (ev1 / 1e-9).round().tolist() == edges
        assert ev2.size == len(edges)

    @pytest.mark.parametrize("form", ["csv", "raw"])
    @pytest.mark.parametrize(
        ("threshold", "edges"),
        [(1e308, 0), (-1e308, 1), (3.4028235677973366e38, 0), (-3.5e38, 1)],
    )
    def test_threshold_beyond_float32_range(self, form, threshold, edges, tmp_path):
        # numpy warned "overflow encountered in cast" when it cast such a
        # threshold to the samples' float32
        trace = synthesize_trace(regular_train(5), regular_train(3, start=777_000))
        path = tmp_path / f"trace.{form}"
        if form == "csv":
            write_trace_csv(trace, path)
            back = read_trace_csv(path)
        else:
            write_trace_raw(trace, path)
            back = read_trace_raw(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev1, ev2 = ingest_trace(back, threshold)
        # an infinite level: no sample above it, or every sample in one run
        assert ev1.tolist() == ev2.tolist() == [0.0] * edges

    def test_oscilloscope_ensemble_counts_match_bench_rates(self):
        # repeated 1 ms captures at the working occupancy: per-channel event
        # counts average near the bench's 274 +- 16 / 265 +- 18 readings
        n_runs = 50
        counts = np.empty((n_runs, 2))
        optics = OpticalState(phase=math.pi / 2, intrinsic_visibility=0.882)
        for k in range(n_runs):
            batch = sample_batch(0.012, 45_454, seed=7000 + k)
            train_a, train_b = detect_both(batch, optics, DetectorConfig(), seed=8000 + k)
            ev1, ev2 = ingest_trace(synthesize_trace(train_a, train_b, duration=1e-3))
            counts[k] = ev1.size, ev2.size
        mean_a, mean_b = counts.mean(axis=0)
        assert 274 - 16 < mean_a < 274 + 16
        assert 265 - 18 < mean_b < 265 + 18


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        a = regular_train(4, spacing_ps=40_000, duration_ps=10_000, start=10_000)
        b = regular_train(2, spacing_ps=40_000, duration_ps=10_000, start=30_000)
        trace = synthesize_trace(a, b, duration=2e-7)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.ch1, trace.ch1)
        assert np.array_equal(back.ch2, trace.ch2)
        assert back.sampling_period == trace.sampling_period

    def test_times_are_whole_multiples_of_the_period_digits(self, tmp_path):
        trace = TraceFile(ch1=[0, 4, 0, 4], ch2=[4, 0, 0, 0], sampling_period=400e-12)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text() == (
            "time_s,ch1_V,ch2_V\n0e-10,0.0,4.0\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n12e-10,4.0,0.0\n"
        )

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,v1,v2\n0,0,0\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace_csv(path)

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,ch1_V,ch2_V\n0.0,0.0\n")
        with pytest.raises(TraceParseError, match="line 2"):
            read_trace_csv(path)

    def test_single_sample_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,ch1_V,ch2_V\n0.0,0.0,0.0\n")
        with pytest.raises(TraceParseError):
            read_trace_csv(path)


def legacy_row_writer(trace, path):
    """Reference for files written before the times became exact decimals:
    one row at a time, each time the shortest repr of the float k * dt."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_s", "ch1_V", "ch2_V"])
        dt = trace.sampling_period
        for k in range(trace.n_samples):
            writer.writerow([repr(k * dt), repr(float(trace.ch1[k])), repr(float(trace.ch2[k]))])


def decimal_exponent(q):
    """The largest x for which the decimal fraction ``q`` > 0 is a whole multiple of 10**x."""
    x = 0
    while (q / Fraction(10) ** x).denominator != 1:
        x -= 1
    while (q / Fraction(10) ** (x + 1)).denominator == 1:
        x += 1
    return x


def row_writer(trace, path):
    """Reference: one row at a time, each time the exact rational k * repr(dt)
    written as the integer k * repr(dt) / 10**x followed by ``e{x}``."""
    dt = Fraction(repr(trace.sampling_period))
    x = decimal_exponent(dt)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time_s", "ch1_V", "ch2_V"])
        for k in range(trace.n_samples):
            mantissa = k * dt / Fraction(10) ** x
            writer.writerow(
                [f"{mantissa.numerator}e{x}", repr(float(trace.ch1[k])), repr(float(trace.ch2[k]))]
            )


def row_reader(path):
    """Reference: the one-row-at-a-time CSV reader that read_trace_csv replaced."""
    times = []
    ch1 = []
    ch2 = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["time_s", "ch1_V", "ch2_V"]:
            raise TraceParseError(f"{path}: line 1: expected header time_s,ch1_V,ch2_V")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise TraceParseError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            try:
                times.append(float(row[0]))
                ch1.append(float(row[1]))
                ch2.append(float(row[2]))
            except ValueError as exc:
                raise TraceParseError(f"{path}: line {lineno}: {exc}") from exc
    if len(times) < 2:
        raise TraceParseError(f"{path}: need at least two samples to infer the sampling period")
    return TraceFile(
        ch1=np.array(ch1, dtype=np.float32),
        ch2=np.array(ch2, dtype=np.float32),
        sampling_period=times[1] - times[0],
    )


def outcome(read, path):
    """(ch1, ch2, sampling_period) of a read, or the message it raised."""
    try:
        trace = read(path)
    except TraceParseError as exc:
        return str(exc)
    return trace.ch1, trace.ch2, trace.sampling_period


def noting_loadtxt(fn, *args):
    """``fn(*args)``, and the lines each np.loadtxt call it made skipped."""
    skipped = []
    loadtxt = np.loadtxt
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            np, "loadtxt", lambda *a, **k: skipped.append(k["skiprows"]) or loadtxt(*a, **k)
        )
        return fn(*args), skipped


HEADER = "time_s,ch1_V,ch2_V\n"
GOOD = "0.0,0.0,4.0\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n"
# (file text, message that only the new reader gives or None): each None
# case must read exactly as the row reader reads it
READER_CORPUS = {
    "clean": (HEADER + GOOD, None),
    "blank_line_middle": (HEADER + "0.0,0.0,4.0\n\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n", None),
    "blank_line_end": (HEADER + GOOD + "\n", None),
    "blank_line_first": (HEADER + "\n" + GOOD, None),
    "blank_lines_only": (HEADER + "\n\n", None),
    "crlf_blank_line": (HEADER + GOOD.replace("\n", "\r\n") + "\r\n", None),
    "header_only": (HEADER, None),
    "one_sample": (HEADER + "0.0,0.0,4.0\n", None),
    "quoted_field": (HEADER + '0.0,"4.0",4.0\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n', None),
    "underscore_digits": (HEADER + "0.0,1_0,4.0\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n", None),
    "padded_space_and_tab": (HEADER + "0.0, 4.0 ,\t4.0\t\n4e-10,4.0,0.0\n8e-10,0.0,0.0\n", None),
    "whitespace_line": (HEADER + "0.0,0.0,4.0\n \t\n4e-10,4.0,0.0\n", None),
    "crlf": (HEADER + GOOD.replace("\n", "\r\n"), None),
    "cr_only": (HEADER + GOOD.replace("\n", "\r"), None),
    "no_final_newline": (HEADER + GOOD.rstrip("\n"), None),
    "hash_line": (HEADER + "0.0,0.0,4.0\n# comment\n4e-10,4.0,0.0\n", None),
    "two_fields": (HEADER + "0.0,0.0\n4e-10,4.0\n", None),
    "four_fields": (HEADER + "0.0,0.0,4.0,1.0\n4e-10,4.0,0.0,1.0\n", None),
    "trailing_comma": (HEADER + "0.0,0.0,4.0,\n4e-10,4.0,0.0,\n", None),
    "empty_field": (HEADER + "0.0,,4.0\n4e-10,4.0,0.0\n", None),
    "hex_literal": (HEADER + "0.0,0x10,4.0\n4e-10,4.0,0.0\n", None),
    "fortran_exponent": (HEADER + "0.0,1d5,4.0\n4e-10,4.0,0.0\n", None),
    "complex": (HEADER + "0.0,1j,4.0\n4e-10,4.0,0.0\n", None),
    "nul_byte": (HEADER + "0.0,1\x00,4.0\n4e-10,4.0,0.0\n", None),
    "arabic_digit": (HEADER + "0.0,\u0661,4.0\n4e-10,4.0,0.0\n", None),
    "bad_row_late": (HEADER + GOOD + "1.2e-9,abc,0.0\n", None),
    "byte_order_mark": ("\ufeff" + HEADER + GOOD, None),
    "Infinity": (
        HEADER + "0.0,Infinity,4.0\n4e-10,4.0,0.0\n",
        "line 2: ch1_V value inf is not a finite float32",
    ),
    "Infinity_time_quoted": (
        HEADER + '"Infinity",0.0,4.0\n4e-10,4.0,0.0\n',
        "line 2: time inf is not finite",
    ),
    # two faults in either order: the first line with one is named
    "bad_step_then_nan_voltage": (
        HEADER + "0.0,0.0,4.0\n4e-10,4.0,0.0\n1e-3,0.0,0.0\n1.0000004e-3,0.0,nan\n",
        "line 4: time 0.001 is not one sampling period (4e-10 s, from the first two rows) "
        "after 4e-10",
    ),
    "nan_voltage_then_bad_step": (
        HEADER + "0.0,0.0,4.0\n4e-10,4.0,nan\n8e-10,0.0,0.0\n1e-3,0.0,0.0\n",
        "line 3: ch2_V value nan is not a finite float32",
    ),
}


def writer_corpus():
    """Traces of float32 edge values and random bit patterns, over more rows than
    one write chunk, at 400 ps and at periods whose repr has 16 digits; an empty
    trace; and the same samples at 9.99999999e-10, whose 9 digits carry the low
    limb of a time on nearly every row, and at a 17-digit period."""
    f32 = np.finfo(np.float32)
    edge = np.array(
        [-0.0, np.nan, np.inf, -np.inf, f32.smallest_subnormal, f32.max, -f32.max,
         np.float32(0.1), 4.0, 0.0],
        dtype=np.float32,
    )
    n = 65_536 + 1_000
    rng = np.random.default_rng(12)
    ch1 = rng.choice(edge, size=n)
    ch2 = rng.integers(0, 2**32, size=n, dtype=np.uint32).view(np.float32)  # any bits
    ch1[:edge.size] = edge
    ch2[-edge.size:] = edge
    return [
        TraceFile(ch1=ch1, ch2=ch2, sampling_period=400e-12),
        TraceFile(ch1=ch1, ch2=ch2, sampling_period=1e-9 / 3),
        TraceFile(ch1=np.zeros(0), ch2=np.zeros(0)),
        TraceFile(ch1=ch1, ch2=ch2, sampling_period=9.99999999e-10),
        TraceFile(ch1=ch1, ch2=ch2, sampling_period=1.0000000000000002e-10),
    ]


def verdict(path):
    """read_trace_csv's outcome for ``path``, with the path cut out of a message."""
    got = outcome(read_trace_csv, path)
    return got.replace(str(path), "<path>") if isinstance(got, str) else got


class TestCsvDifferential:
    """write_trace_csv and read_trace_csv against the row-at-a-time references."""

    def test_writer_bytes_match_row_writer(self, tmp_path):
        # at 400 ps the second chunk's times cross from 5 to 6 digits (k * 4
        # reaches 10**5 at k = 25 000), so its rows differ in width mid-chunk
        assert traces._CSV_CHUNK_ROWS < 10**5 // 4 < 2 * traces._CSV_CHUNK_ROWS
        for trace in writer_corpus():
            write_trace_csv(trace, tmp_path / "new.csv")
            row_writer(trace, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(READER_CORPUS))
    def test_reader_matches_row_reader(self, name, tmp_path):
        text, new_rejection = READER_CORPUS[name]
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = outcome(read_trace_csv, path)
        if new_rejection is not None:
            assert got == f"{path}: {new_rejection}"
            return
        want = outcome(row_reader, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert not isinstance(got, str), got
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize(
        "content",
        [b"time_s,ch1_V,ch2_V\n0.0,\xff,0.0\n4e-10,0.0,0.0\n", b"time_s\xff,ch1_V,ch2_V\n0,0,0\n"],
    )
    def test_reader_rejects_undecodable_bytes(self, content, tmp_path):
        # the row reader let UnicodeDecodeError escape as a traceback
        path = tmp_path / "trace.csv"
        path.write_bytes(content)
        with pytest.raises(TraceParseError, match="not .* text"):
            read_trace_csv(path)

    def test_reader_round_trips_written_capture(self, tmp_path):
        batch = sample_batch(0.012, 1_400, seed=3)  # 30.8 us: 77 000 samples
        optics = OpticalState(phase=1.0, intrinsic_visibility=0.882)
        trace = synthesize_trace(*detect_both(batch, optics, DetectorConfig(), seed=4))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        got, want = outcome(read_trace_csv, path), outcome(row_reader, path)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == trace.sampling_period

    def test_writer_bytes_match_row_writer_on_capture(self, tmp_path):
        # a synthesized capture, 2 voltage levels per channel, over several write chunks
        trace = committed_capture(30e-6, seed=21)
        assert trace.n_samples > 2 * traces._CSV_CHUNK_ROWS
        write_trace_csv(trace, tmp_path / "new.csv")
        row_writer(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_writer_bytes_match_row_writer_on_chunk_starting_in_a_pulse(self, tmp_path):
        # a pulse on ch1 covers samples 16 375 .. 16 399, so the second chunk's
        # row 0 sits at 4.0 V, and its tail is not the one of the chunk's
        # resting level; ch2 pulses elsewhere
        chunk_start_ps = traces._CSV_CHUNK_ROWS * 400
        a = regular_train(3, spacing_ps=2_000_000, start=chunk_start_ps - 3_600)
        b = regular_train(3, spacing_ps=2_000_000, start=1_000_000)
        trace = synthesize_trace(a, b, duration=3 * traces._CSV_CHUNK_ROWS * 400e-12)
        assert trace.ch1[traces._CSV_CHUNK_ROWS] == 4.0 and trace.ch2[traces._CSV_CHUNK_ROWS] == 0.0
        second = trace.ch1[traces._CSV_CHUNK_ROWS : 2 * traces._CSV_CHUNK_ROWS]
        assert np.count_nonzero(second == 4.0) < second.size // 2
        write_trace_csv(trace, tmp_path / "new.csv")
        row_writer(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_reader_reads_written_capture_in_bulk(self, tmp_path, monkeypatch):
        trace = committed_capture(30e-6, seed=23)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)

        def refuse(route):
            def fail(*args, **kwargs):
                raise AssertionError(f"read_trace_csv fell back to {route}")

            return fail

        # the exact path reads it: a silent fall back would hide a lost gain
        monkeypatch.setattr(traces, "_parse_csv_rows", refuse("its row loop"))
        monkeypatch.setattr(np, "loadtxt", refuse("np.loadtxt"))
        back = read_trace_csv(path)
        assert np.array_equal(back.ch1, trace.ch1) and np.array_equal(back.ch2, trace.ch2)
        assert back.sampling_period == trace.sampling_period

    @pytest.mark.parametrize(
        ("case", "route"),
        [
            ("noise", "loadtxt"),
            ("late_17_digit_voltage", "exact_then_loadtxt"),
            ("late_subnormal_voltage", "exact_then_loadtxt"),
            ("legacy", "exact_then_loadtxt"),
            ("no_final_newline", "exact"),
            ("short_runs", "exact_then_loadtxt"),
            ("long_then_short_runs", "exact_then_loadtxt"),
        ],
    )
    def test_reader_matches_row_reader_on_both_routes(self, case, route, tmp_path):
        path = tmp_path / "trace.csv"
        if case.endswith("short_runs"):
            # ch1 switches between 0 and 3.25 V every 4 samples, which changes
            # the line's width: runs too short for the exact path, from the
            # first line or after 30 000 lines of long runs
            k = np.arange(32_000) - (30_000 if case == "long_then_short_runs" else 0)
            ch1 = np.where((k >= 0) & (k // 4 % 2 == 1), 3.25, 0.0).astype(np.float32)
            write_trace_csv(TraceFile(ch1=ch1, ch2=np.zeros_like(ch1)), path)
        elif case == "noise":
            # an oscilloscope record: 17-digit voltages, lines of many lengths
            rng = np.random.default_rng(27)
            noise = rng.normal(0.0, 0.05, size=(2, 20_000)).astype(np.float32)
            write_trace_csv(TraceFile(ch1=noise[0], ch2=noise[1]), path)
        elif case == "legacy":
            legacy_row_writer(committed_capture(30e-6, seed=29), path)  # 17-digit times
        else:
            write_trace_csv(committed_capture(30e-6, seed=29), path)
            data = path.read_bytes()
            if case == "no_final_newline":
                data = data[:-1]
            else:
                # one field that leaves the exact path, in a line of the second
                # chunk, after the first has been read
                value = {"late_17_digit_voltage": b"0.10000000149011612"}.get(case, b"1e-45")
                start = data.index(b"\n", traces._CHUNK_BYTES + 100) + 1
                stop = data.index(b"\n", start)
                time, _, ch2 = data[start:stop].split(b",")
                data = data[:start] + b",".join([time, value, ch2]) + data[stop:]
            path.write_bytes(data)
        assert traces._parse_csv_bulk(path) is not None  # the row loop is not needed
        got, skipped = noting_loadtxt(outcome, read_trace_csv, path)
        # np.loadtxt skips the header and the lines the exact path read: a few
        # where it stops early, more than 30 000 where it stops after long runs
        if route == "exact_then_loadtxt":
            early = case in ("legacy", "short_runs")
            assert len(skipped) == 1 and skipped[0] > (1 if early else 30_000)
        else:
            assert skipped == ([1] if route == "loadtxt" else [])
        want = outcome(row_reader, path)
        assert not isinstance(got, str), got
        assert got[0].view(np.uint32).tolist() == want[0].view(np.uint32).tolist()
        assert got[1].view(np.uint32).tolist() == want[1].view(np.uint32).tolist()
        assert got[2] == want[2]

    @pytest.mark.parametrize(
        ("case", "row_loop"),
        [
            ("crlf_after_first_chunk", True),
            ("cr_after_first_chunk", True),
            ("blank_line_after_first_chunk", True),
            ("no_final_newline", False),
            ("longer_than_estimate", False),
            ("late_17_digit_voltage_gz", True),
        ],
    )
    def test_single_pass_reader_matches_row_reader(self, case, row_loop, tmp_path):
        # the exact path reads the body once: it stops at a \r, which the
        # count of the lines left then finds, meets a blank line only where
        # it reads, and grows its rows past the estimate from the body's
        # length and its first line.  Where it stops early in a file whose
        # suffix np.loadtxt would decompress, the row loop reads the rest
        path = tmp_path / ("trace.csv.gz" if case.endswith("_gz") else "trace.csv")
        if case == "longer_than_estimate":
            # 1 000 lines of long voltages, then 79 000 shorter ones, over two chunks
            ch1 = np.zeros(80_000, np.float32)
            ch1[:1_000] = 3.3359375
            write_trace_csv(TraceFile(ch1=ch1, ch2=ch1.copy()), path)
            body = path.read_bytes().partition(b"\n")[2]
            assert len(body) > traces._CHUNK_BYTES
            assert len(body) // body.index(b"\n") + 1 < 80_000
        else:
            write_trace_csv(committed_capture(30e-6, seed=29), path)
            data = path.read_bytes()
            end = data.index(b"\n", traces._CHUNK_BYTES + 100)  # a line of the second chunk
            stop = data.index(b"\n", end + 1)
            time, _, ch2 = data[end + 1 : stop].split(b",")
            late_17_digits = b",".join([time, b"0.10000000149011612", ch2])
            data = {
                "crlf_after_first_chunk": data[:end] + b"\r" + data[end:],
                "cr_after_first_chunk": data[:end] + b"\r" + data[end + 1 :],
                "blank_line_after_first_chunk": data[:end] + b"\n" + data[end:],
                "no_final_newline": data[:-1],
                "late_17_digit_voltage_gz": data[: end + 1] + late_17_digits + data[stop:],
            }[case]
            path.write_bytes(data)
        data, skipped = noting_loadtxt(traces._parse_csv_bulk, path)
        assert skipped == [] and (data is None) == row_loop
        got, want = outcome(read_trace_csv, path), outcome(row_reader, path)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str), got
        assert got[0].view(np.uint32).tolist() == want[0].view(np.uint32).tolist()
        assert got[1].view(np.uint32).tolist() == want[1].view(np.uint32).tolist()
        assert got[2] == want[2]

    @pytest.mark.parametrize(
        ("field", "exact"),
        [
            ("123456789012345", True),  # 15 digits
            ("1234567890123456", False),
            ("12345678.9012345e-15", True),  # 15 digits at 10**-22
            ("1e22", True),
            ("1e-22", True),
            ("1e23", False),
            ("1e-23", False),
            ("-0.0", True),
            ("-0e-10", True),
            ("4.", True),
            (".5", True),
            ("-.5e3", True),
            ("+4.0", False),
            ("1E5", False),
            (".", False),
            ("1e", False),
            pytest.param("0." + "1" * traces._CHUNK_BYTES, False, id="line_longer_than_a_chunk"),
        ],
    )
    def test_exact_path_edges(self, field, exact, tmp_path):
        # each field the exact path takes reads as the double float() gives;
        # a field beyond it sends the file to np.loadtxt, or on to the row loop
        path = tmp_path / "trace.csv"
        lines = [f"0e-10,{field},{field}", f"4e-10,{field},{field}"]
        path.write_text(HEADER + "\n".join(lines) + "\n")
        data, skipped = noting_loadtxt(traces._parse_csv_bulk, path)
        assert bool(skipped) != exact
        try:
            want = [[float(text) for text in line.split(",")] for line in lines]
        except ValueError:
            assert data is None and outcome(read_trace_csv, path) == outcome(row_reader, path)
            return
        assert np.array(want).view(np.uint64).tolist() == data.view(np.uint64).tolist()

    def test_compression_suffix_read_as_plain_text(self, tmp_path):
        # np.loadtxt would decompress a file by its suffix, given its path
        path = tmp_path / "trace.csv.gz"
        path.write_text(HEADER + GOOD)
        back = read_trace_csv(path)
        assert back.n_samples == 3 and back.sampling_period == 4e-10


# a field's form on the exact path: sign, digits before and after an optional
# point (at least one), and an optional exponent
FIELD_FORM = st.tuples(
    st.sampled_from(["", "-"]),
    st.integers(0, 10),
    st.sampled_from([None, 0, 1, 3, 8]),
    st.one_of(st.none(), st.integers(-40, 40).map(str), st.sampled_from(["-022", "022", "-0"])),
).filter(lambda form: form[1] + (form[2] or 0) > 0)


@st.composite
def exact_bodies(draw):
    """Bodies of one to three runs of lines, each run one layout of three
    fields whose digits are drawn line by line."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        forms = [draw(FIELD_FORM) for _ in range(3)]
        for _ in range(draw(st.integers(1, 12))):
            fields = []
            for sign, whole, fraction, exponent in forms:
                def digits(n):
                    return draw(st.text("0123456789", min_size=n, max_size=n))

                text = sign + digits(whole)
                text += "" if fraction is None else "." + digits(fraction)
                fields.append(text + ("" if exponent is None else "e" + exponent))
            lines.append(",".join(fields))
    return lines


def on_exact_path(text):
    """Whether ``text``, in an exact-path form, has at most 15 digits and a
    power of ten within +-22."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    return len(whole + fraction) <= 15 and abs(int(exponent or 0) - len(fraction)) <= 22


@settings(max_examples=300, deadline=None)
@given(exact_bodies())
@example(["9" * 15 + ",0.0,-0.0"])
@example(["123456789012345e-22,1e22,.000000000000001e-7"])
@example(["9999999999999999,0.0,0.0", "9999999999999998,0.0,0.0"])  # 16 digits, past 2**53
@example(["1e-10,0.0,0.0", "2e-11,0.0,0.0", "3e-10,0.0,0.0"])  # one layout but the exponent
# the widest weight matrix, three 15-digit fields in 9 digit groups, and the narrowest
@example(["123456789012345,-98765432109876.5,.999999999999999e7"] * 2)
@example(["1,2,3", "4,-5,6", "7,8,-9"])
def test_exact_path_reads_every_field_as_float(lines):
    # bit for bit the doubles float() gives; np.loadtxt only for a file with a
    # field of more than 15 digits or a power of ten beyond +-22
    want = np.array([[float(text) for text in line.split(",")] for line in lines])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_text(HEADER + "\n".join(lines) + "\n")
        data, skipped = noting_loadtxt(traces._parse_csv_bulk, path)
    assert data.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    exact = all(on_exact_path(text) for line in lines for text in line.split(","))
    assert bool(skipped) != exact


@pytest.mark.parametrize(
    ("start", "step"),
    [
        (0, 4),  # times of 1 and 2 digits
        (20, 4),  # 2 and 3 digits
        (2_490, 4),  # k * m crosses 10**4: 4 digits, then one group and 1 digit
        (24_999_990, 4),  # k * m crosses 10**8: 8 digits, then two groups and 1 digit
        (249_999_990, 4),  # k * m crosses 10**9: the high limb starts
        (999_999_990, 999_999_999),  # the low limb carries on nearly every row
        (29_999_999_990, 33_333_333_333_333_335),  # the high limb crosses 10**18
    ],
)
def test_chunk_time_digits_carry_across_limbs(start, step):
    # rows take the times k * m from any start, without writing the rows before
    # it; tails of two widths, so the keep-mask drops padding on every other row.
    # Digits go four columns at a time, so each case crosses a digit count
    which = np.arange(20) % 2
    got = traces._csv_rows(start, step, ["\n", ",x\n"], which).tobytes()
    rows = zip(range(start, start + 20), which)
    want = "".join(f"{k * step}{',x' if w else ''}\n" for k, w in rows)
    assert got == want.encode()


@pytest.mark.parametrize("case", ["400ps", "third_of_ns", "empty", "capture"])
def test_legacy_file_reads_as_new_file(case, tmp_path):
    # files written before the times became exact decimals read as before:
    # the same samples and period, or the same refusal
    corpus = writer_corpus()
    trace = {
        "400ps": corpus[0],
        "third_of_ns": corpus[1],
        "empty": corpus[2],
        "capture": committed_capture(30e-6, seed=21),
    }[case]
    legacy, new = tmp_path / "legacy.csv", tmp_path / "new.csv"
    legacy_row_writer(trace, legacy)
    write_trace_csv(trace, new)
    want, got = verdict(legacy), verdict(new)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == trace.sampling_period


def nearest_double(q):
    """The double nearest the rational ``q`` >= 0, or inf where it overflows."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
TWO_LEVELS = [(0.0, 4.0), (4.0, 0.0)] * 25


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max),
    st.lists(st.tuples(F32, F32), max_size=50),
)
@example(4e-10, TWO_LEVELS)
@example(1e-9 / 3, TWO_LEVELS)
@example(2.5e-11, TWO_LEVELS)
@example(0.1, TWO_LEVELS)
@example(1000.0, TWO_LEVELS)
@example(1e300, TWO_LEVELS)
# the two rules round to either side of the overflow threshold: the legacy
# time 6 * dt overflows and the decimal one does not, then the other way round
@example(2.9961552247705263e307, TWO_LEVELS[:8])
@example(3.668761499719012e306, TWO_LEVELS)
def test_written_times_are_exact_decimal_multiples(dt, samples):
    ch1, ch2 = np.array(samples, dtype=np.float32).reshape(-1, 2).T
    trace = TraceFile(ch1=ch1, ch2=ch2, sampling_period=dt)
    times = [nearest_double(Fraction(repr(dt)) * k) for k in range(len(samples))]
    legacy_times = [k * dt for k in range(len(samples))]
    with tempfile.TemporaryDirectory() as tmp:
        new, legacy = Path(tmp) / "new.csv", Path(tmp) / "legacy.csv"
        legacy_row_writer(trace, legacy)
        # a legacy file whose times overflow is refused at its first infinite time
        if math.inf in legacy_times:
            line = legacy_times.index(math.inf) + 2
            assert verdict(legacy) == f"<path>: line {line}: time inf is not finite"
        if math.inf in times:
            # the writer refuses such a trace and leaves no file
            message = f"{len(samples)} samples at sampling period {dt!r} s end past"
            with pytest.raises(TraceParseError, match=re.escape(message)):
                write_trace_csv(trace, new)
            assert not new.exists()
            return
        write_trace_csv(trace, new)
        with open(new, newline="") as fh:
            assert [float(row[0]) for row in list(csv.reader(fh))[1:]] == times
        got = verdict(new)
        if len(samples) < 2:
            assert got == verdict(legacy)
        else:
            assert not isinstance(got, str), got
            assert np.array_equal(got[0], ch1) and np.array_equal(got[1], ch2)
            assert got[2] == dt


def traced_peak(fn, *args):
    """``fn(*args)`` and the most bytes it held at once, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_round_trip_memory_bounded(tmp_path):
    # 100 us, 249 975 samples.  The row-by-row writer and the line-generator
    # reader peaked at 13.01 MB and 12.50 MB here (numpy 2.4.6, Python 3.11.7),
    # and the bounds stay at those figures.  The writer that builds each chunk
    # as one byte matrix peaks at 1.79 MB (1.72 MB while it wrote the digits
    # one column at a time: the 4-digit table lookup holds one index array
    # more; the one that joined each chunk's row strings, at 2.11 MB).  The
    # reader peaks at 10.70 MB (10.01 MB with np.loadtxt): its exact path, in
    # 1 MiB chunks and steps of at most 256 KiB, peaks at 10.69 MB (11.90 MB
    # while it kept one set of step buffers per read), as it sizes its rows
    # from the 14-byte first line (8.1 MB for 6.0 MB of rows; pages it never
    # writes are never resident), and the checks on the parsed columns at
    # 10.00 MB (11.26 MB while they built their per-line masks on every file;
    # reading the whole body at once peaked at about 14 MB).
    trace = committed_capture(100e-6, seed=25)
    path = tmp_path / "trace.csv"
    _, write_peak = traced_peak(write_trace_csv, trace, path)
    back, read_peak = traced_peak(read_trace_csv, path)
    assert np.array_equal(back.ch1, trace.ch1) and np.array_equal(back.ch2, trace.ch2)
    assert write_peak <= 13.0e6
    assert read_peak <= 12.5e6


NUMBER = st.one_of(
    st.sampled_from(["0.0", "4.0", "-0.0", "1e-45", "3.4028235e+38"]),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
)
ODD = st.one_of(
    st.sampled_from(["", " 4.0 ", "\t0.0", "nan", "-inf", "Infinity", "1_0", "0x10", '"4.0"', "#",
                     "1e300", "3.5e38"]),
    st.text(alphabet="0123456789.eE+-_ ", max_size=6),
)
# sample-period offsets of a time from k * 400 ps: on the grid, within half a
# step of it, beyond half a step, or back to the previous time
JITTER = st.sampled_from([0.0] * 6 + [0.25, -0.4, 0.7, -0.75, -1.0, 1.5])


@st.composite
def csv_bodies(draw):
    """Trace CSV bodies near the accepted format: mostly three finite fields
    with times near the 400 ps grid, any line ending, maybe a blank line."""

    def field():
        return draw(ODD) if draw(st.integers(0, 7)) == 0 else draw(NUMBER)

    lines = []
    for k in range(draw(st.integers(0, 6))):
        time = repr((k + draw(JITTER)) * 400e-12) if draw(st.integers(0, 7)) else field()
        volts = [field() for _ in range(draw(st.sampled_from([2] * 8 + [1, 3])))]
        lines.append(",".join([time] + volts))
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def first_bad_line(path):
    """Loop reference for the checks read_trace_csv adds to the row reader's:
    the first line with a time that is not finite, a step off the first step's
    period by more than half of it (or a first step that is not > 0), or a
    voltage that is not a finite float32; None when no line breaks them."""
    with open(path, newline="") as fh:
        rows = [[float(field) for field in row] for row in list(csv.reader(fh))[1:]]
    period = rows[1][0] - rows[0][0]
    for k, (time, *volts) in enumerate(rows):
        step_ok = k == 0 or (period > 0 and abs(time - rows[k - 1][0] - period) <= period / 2)
        with np.errstate(over="ignore"):
            volts_ok = all(np.isfinite(np.float32(v)) for v in volts)
        if not (math.isfinite(time) and step_ok and volts_ok):
            return k + 2
    return None


@settings(max_examples=400, deadline=None)
@given(csv_bodies())
def test_reader_fuzz_matches_row_reader(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        with open(path, "w", newline="") as fh:
            fh.write(HEADER + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = outcome(read_trace_csv, path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the row reader warns on float32 overflow
            want = outcome(row_reader, path)
        if isinstance(want, str) and "sampling period must be > 0" not in want:
            assert got == want  # a parse error, or fewer than two samples
            return
        line = first_bad_line(path)
    if line is not None:
        assert isinstance(got, str) and got.startswith(f"{path}: line {line}: "), got
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]


# rows that the row reader accepted and read_trace_csv rejects, with the line it names
BAD_VALUES = {
    "nan_time": ("0.0,0.0,0.0\nnan,0.0,0.0\n8e-10,0.0,0.0\n", "line 3: time nan is not finite"),
    "inf_time": ("0.0,0.0,0.0\n4e-10,0.0,0.0\ninf,0.0,0.0\n", "line 4: time inf is not finite"),
    "inf_first_times": ("inf,0.0,0.0\ninf,0.0,0.0\n", "line 2: time inf is not finite"),
    "nan_sample": (
        "0.0,0.0,0.0\n4e-10,0.0,nan\n8e-10,0.0,0.0\n",
        "line 3: ch2_V value nan is not a finite float32",
    ),
    "inf_sample": (
        "0.0,0.0,0.0\n4e-10,-inf,0.0\n8e-10,0.0,0.0\n",
        "line 3: ch1_V value -inf is not a finite float32",
    ),
    "float32_overflow": (
        "0.0,0.0,0.0\n4e-10,0.0,0.0\n8e-10,1e300,0.0\n",
        "line 4: ch1_V value 1e+300 is not a finite float32",
    ),
    "non_uniform_time": (
        "0.0,0.0,0.0\n4e-10,0.0,0.0\n1e-3,0.0,0.0\n",
        "line 4: time 0.001 is not one sampling period (4e-10 s, from the first two rows) "
        "after 4e-10",
    ),
    "step_short_by_more_than_half": (
        "0.0,0.0,0.0\n4e-10,0.0,0.0\n5.9e-10,0.0,0.0\n",
        "line 4: time 5.9e-10 is not one sampling period (4e-10 s, from the first two rows) "
        "after 4e-10",
    ),
    "decreasing_time": (
        "4e-10,0.0,0.0\n0.0,0.0,0.0\n",
        "line 3: time 0.0 does not increase from 4e-10",
    ),
    "repeated_time": ("0.0,0.0,0.0\n0.0,0.0,0.0\n", "line 3: time 0.0 does not increase from 0.0"),
    "first_bad_line_wins": (
        "0.0,0.0,0.0\n4e-10,nan,0.0\n8e-10,0.0,0.0\nnan,0.0,0.0\n",
        "line 3: ch1_V value nan is not a finite float32",
    ),
    "row_path_nan_sample": (
        '0.0,"0.0",0.0\n4e-10,0.0,0.0\n8e-10,0.0,nan\n',
        "line 4: ch2_V value nan is not a finite float32",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BAD_VALUES))
def test_reader_rejects_bad_values(name, tmp_path):
    body, message = BAD_VALUES[name]
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + body)
    with pytest.raises(TraceParseError) as info:
        read_trace_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_reader_keeps_jittered_grid(tmp_path):
    # steps within half a period of the first one are kept; the period is the first step
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "0.0,0.0,0.0\n4e-10,0.0,0.0\n6.1e-10,0.0,4.0\n1.2e-9,0.0,0.0\n")
    trace = read_trace_csv(path)
    assert trace.sampling_period == 4e-10
    assert trace.n_samples == 4


class TestRawRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        trace = TraceFile(
            ch1=rng.uniform(0, 4, size=1000).astype(np.float32),
            ch2=rng.uniform(0, 4, size=1000).astype(np.float32),
        )
        path = tmp_path / "trace.bin"
        write_trace_raw(trace, path)
        back = read_trace_raw(path)
        assert np.array_equal(back.ch1, trace.ch1)
        assert np.array_equal(back.ch2, trace.ch2)

    def test_bad_magic_reports_byte_zero(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(TraceParseError, match="byte 0"):
            read_trace_raw(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"PSTR")
        with pytest.raises(TraceParseError, match="byte 4"):
            read_trace_raw(path)

    def test_length_mismatch_reports_offset(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        payload = struct.pack("<8sII", b"PSTRACE1", 10, 2) + b"\x00" * 40  # needs 80
        path.write_bytes(payload)
        with pytest.raises(TraceParseError, match="byte 56"):
            read_trace_raw(path)

    def test_wrong_channel_count(self, tmp_path):
        import struct

        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<8sII", b"PSTRACE1", 1, 3) + b"\x00" * 12)
        with pytest.raises(TraceParseError, match="channels"):
            read_trace_raw(path)

    @pytest.mark.parametrize(
        "ch1,ch2,message",
        [
            ([0.0, np.nan, 0.0, np.inf], [0.0] * 4, "byte 24: ch1 sample nan is not finite"),
            ([0.0, 4.0, 0.0, 4.0], [0, 0, -np.inf, 0], "byte 36: ch2 sample -inf is not finite"),
        ],
    )
    def test_non_finite_sample_names_channel_and_byte(self, ch1, ch2, message, tmp_path):
        path = tmp_path / "bad.bin"
        write_trace_raw(TraceFile(ch1=ch1, ch2=ch2), path)
        with pytest.raises(TraceParseError) as info:
            read_trace_raw(path)
        assert str(info.value) == f"{path}: {message}"


# 32-bit patterns of float32 samples: the synthesized levels, the edges of the
# range, the non-finite values, and any bits
SAMPLE_BITS = st.one_of(
    st.sampled_from([0.0, 4.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, 3.4028235e38]).map(
        lambda v: int(np.array(v, dtype="<f4").view("<u4"))
    ),
    st.integers(0, 2**32 - 1),
)
HEADER_WORD = st.one_of(
    st.integers(0, 6), st.sampled_from([2**31, 2**32 - 1]), st.integers(0, 2**32 - 1)
)


@st.composite
def raw_files(draw):
    """Raw trace files near the accepted form: any magic, any header words,
    a payload of the size the header asks for or of any size, cut anywhere."""
    magic = draw(st.sampled_from([MAGIC] * 6 + [b"PSTRACE2"]) | st.binary(min_size=8, max_size=8))
    count = draw(HEADER_WORD)
    channels = draw(st.sampled_from([2] * 6 + [0, 1, 3]) | HEADER_WORD)
    words = 4 * count * channels
    if words <= 4 * 6 * 3 and draw(st.integers(0, 3)):
        bits = draw(st.lists(SAMPLE_BITS, min_size=words // 4, max_size=words // 4))
        payload = struct.pack(f"<{len(bits)}I", *bits)
    else:
        payload = draw(st.binary(max_size=80))
    blob = RAW_HEADER.pack(magic, count, channels) + payload
    if draw(st.integers(0, 7)) == 0:
        blob = blob[: draw(st.integers(0, len(blob)))]
    return blob


@settings(max_examples=400, deadline=None)
@given(raw_files())
def test_any_raw_file_reads_or_raises_trace_parse_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "trace.bin", Path(tmp) / "events.csv"
        path.write_bytes(blob)
        try:
            trace = read_trace_raw(path)
        except TraceParseError:
            trace = None
        else:
            assert trace.n_samples == RAW_HEADER.unpack_from(blob)[1]
            assert np.isfinite(trace.ch1).all() and np.isfinite(trace.ch2).all()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", "--format", "raw", "--trace", str(path), "--out", str(out)])
        assert code == (3 if trace is None else 0), err.getvalue()
        assert out.exists() == (code == 0)


class TestTraceFile:
    def test_channel_shape_mismatch(self):
        with pytest.raises(TraceParseError):
            TraceFile(ch1=np.zeros(3), ch2=np.zeros(4))

    @pytest.mark.parametrize("period", [math.nan, math.inf, -math.inf, 0.0, -1.0, 5e-324])
    def test_period_not_a_finite_normal_double_rejected(self, period):
        # the CSV writer could not carry it: nan and inf have no decimal, and
        # the decimal repr of a subnormal is up to 1.2 % off the stored double
        with pytest.raises(TraceParseError) as info:
            TraceFile(ch1=np.zeros(3), ch2=np.zeros(3), sampling_period=period)
        assert str(info.value).endswith(f"got {period!r}")

    def test_smallest_normal_period_accepted(self):
        trace = TraceFile(ch1=np.zeros(3), ch2=np.zeros(3), sampling_period=sys.float_info.min)
        assert trace.sampling_period == sys.float_info.min
