"""The heap policy that importing pstream sets under glibc (``pstream.heap``).

The guards are checked against a stand-in libc and environment, so no test
here changes the process's allocator or its environment.  The last test
measures the policy itself, in a child process: a counter step of the
committed coherent scan reuses the memory that the previous step freed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pstream import heap
from pstream.config import load_config
from pstream.detection import detect_bin
from pstream.interferometer import OpticalState
from pstream.source import sample_batch
from pstream.traces import synthesize_trace, write_trace_csv

SETTINGS = [(-2, 64 << 20), (-3, 32 << 20)]  # M_TOP_PAD, M_MMAP_THRESHOLD


class Libc:
    """A libc whose ``mallopt`` notes its calls."""

    def __init__(self):
        self.calls = []

        def mallopt(parameter, value):
            self.calls.append((parameter, value))
            return 1

        self.mallopt = mallopt  # a function, which takes argtypes as ctypes' do


@pytest.fixture()
def libc(monkeypatch):
    """A glibc process whose user set no heap setting, with a noting libc."""
    libc = Libc()
    monkeypatch.setattr(heap.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(heap.os, "environ", {})
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: libc)
    return libc


def test_sets_the_top_pad_and_the_mmap_threshold(libc):
    heap._keep_freed_heap()
    assert libc.calls == SETTINGS


def no_confstr(monkeypatch):
    monkeypatch.delattr(heap.os, "confstr")


def unknown_name(monkeypatch):
    def confstr(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(heap.os, "confstr", confstr)


@pytest.mark.parametrize(
    "other_libc",
    [
        no_confstr,
        unknown_name,
        lambda monkeypatch: monkeypatch.setattr(heap.os, "confstr", lambda name: None),
        lambda monkeypatch: monkeypatch.setattr(heap.os, "confstr", lambda name: "musl 1.2"),
    ],
    ids=["no_confstr", "unknown_name", "none", "other"],
)
def test_nothing_off_glibc(libc, monkeypatch, other_libc):
    other_libc(monkeypatch)
    heap._keep_freed_heap()
    assert libc.calls == []


def test_nothing_without_mallopt(libc, monkeypatch):
    monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: object())
    heap._keep_freed_heap()  # no AttributeError
    assert libc.calls == []


@pytest.mark.parametrize(
    "environ",
    [
        {"MALLOC_TOP_PAD_": "0"},
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.top_pad=0"},
        {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0:glibc.malloc.mmap_threshold=131072"},
    ],
)
def test_user_setting_stands(libc, monkeypatch, environ):
    monkeypatch.setattr(heap.os, "environ", environ)
    heap._keep_freed_heap()
    assert libc.calls == []


def test_other_tunables_leave_the_policy(libc, monkeypatch):
    monkeypatch.setattr(heap.os, "environ", {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=1"})
    heap._keep_freed_heap()
    assert libc.calls == SETTINGS


def glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc ")
    except (AttributeError, ValueError, OSError):
        return False


USER_HEAP_SETTING = any(name in os.environ for name in ("MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_"))
USER_HEAP_SETTING |= any(
    entry.partition("=")[0] in ("glibc.malloc.top_pad", "glibc.malloc.mmap_threshold")
    for entry in os.environ.get("GLIBC_TUNABLES", "").split(":")
)
CONFIG = Path(__file__).resolve().parents[1] / "configs" / "coincidence_scan.json"


# counter steps of the committed coherent scan: four at each of five phases
# to warm up, then eight at each counted; prints the minor faults per counted step
STEPS = """
import math, resource, sys
from pstream import coincide, detect_bin, load_config, sample_batch, OpticalState
cfg = load_config(sys.argv[1])
phases = (0.0, 0.5, math.pi / 2, math.pi, 2.5)
def step(phase, seed):
    optics = OpticalState(phase, cfg.optics.intrinsic_visibility, 1.0)
    batch = sample_batch(cfg.source.mean_photon(), cfg.slots_per_step, seed)
    trains = detect_bin(batch, optics, cfg.detectors, seed, slot_width=cfg.source.dead_time)
    coincide(*trains, cfg.ccm)
for phase in phases:
    for seed in range(4):
        step(phase, seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for phase in phases:
    for seed in range(4, 12):
        step(phase, seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (8 * len(phases)))
"""
# a trace CSV read three times to warm up, then five times counted, in a
# process that does nothing else; prints the minor faults per counted read
READS = """
import resource, sys
from pstream import read_trace_csv
for k in range(8):
    if k == 3:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    read_trace_csv(sys.argv[1])
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def faults_in_child(script, *args):
    """What ``script`` prints, run in a fresh process whose heap no earlier test has grown."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


needs_the_policy = pytest.mark.skipif(
    not glibc() or USER_HEAP_SETTING, reason="the policy acts under glibc, unless the user set the heap"
)


@needs_the_policy
@pytest.mark.usefixtures("child_pythonpath")
def test_counter_step_reuses_freed_heap():
    # about 190 faults per step without the policy, 3.25 with it (glibc
    # 2.36, numpy 2.4.6): nearly all at phase pi, where a step raises the
    # heap's high-water mark once; a step in steady state faults none
    assert faults_in_child(STEPS, CONFIG) < 20


@needs_the_policy
@pytest.mark.usefixtures("child_pythonpath")
def test_csv_read_reuses_freed_heap(tmp_path):
    # a 100 us capture: 4.7 MB of CSV and 6 MB of parsed rows.  With the top
    # pad alone the mmap threshold stays near 230 kB, and a read in a process
    # whose heap has not grown since maps its large arrays afresh: 2 609
    # faults per read; with the threshold at 32 MiB too, none
    cfg = load_config(CONFIG)
    batch = sample_batch(cfg.source.mean_photon(), 4545, 1)
    optics = OpticalState(1.0, cfg.optics.intrinsic_visibility)
    trains = detect_bin(batch, optics, cfg.detectors, 2, slot_width=cfg.source.dead_time)
    path = tmp_path / "trace.csv"
    write_trace_csv(synthesize_trace(*trains), path)
    assert faults_in_child(READS, path) < 50
