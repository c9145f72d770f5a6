"""The heap policy of a process that imports pstream.

A 100 ms counter step allocates and frees numpy temporaries of a few hundred
kB.  By default glibc hands the freed top of its heap back to the kernel, and
the next step faults those pages in again: 6 000-11 000 minor faults and 8 ms
of system time per ``coherent_scan`` operation of the benchmark.  With
glibc's ``M_TOP_PAD`` at 64 MiB the heap grows in steps of that size and keeps
that much free at its top when it trims, so freed memory stays mapped and the
next step reuses it.  Pages that are never written do not count towards the
resident set.

Setting the pad also stops glibc from raising its mmap threshold as large
blocks are freed, and a block above the threshold that the heap's free top
cannot hold is mapped and unmapped on its own.  After numpy's import the
threshold stands near 230 kB (glibc 2.36, numpy 2.4.6), so with the pad alone
a process that only reads CSV traces mapped its 8 MB arrays afresh on every
read: 3 765 faults per read of the benchmark's 4.7 MB capture, and 8.1 ->
11.8 ms.  So ``M_MMAP_THRESHOLD`` is set to 32 MiB as well, the largest value
glibc's own rule would raise it to, and blocks below that come from the heap.
"""

from __future__ import annotations

import ctypes
import os

# (mallopt parameter from glibc's <malloc.h>, value, the environment variable
# and the GLIBC_TUNABLES entry through which a user sets it)
_SETTINGS = (
    (-2, 64 << 20, "MALLOC_TOP_PAD_", "glibc.malloc.top_pad"),  # M_TOP_PAD
    (-3, 32 << 20, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),  # M_MMAP_THRESHOLD
)


def _keep_freed_heap() -> None:
    """Set glibc's ``M_TOP_PAD`` to 64 MiB and ``M_MMAP_THRESHOLD`` to 32 MiB.

    Nothing is done off glibc, without ``mallopt``, or where the user set
    either through its environment variable or its ``GLIBC_TUNABLES`` entry:
    the two act together.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc or not libc.startswith("glibc "):
        return
    tunables = {entry.partition("=")[0] for entry in os.environ.get("GLIBC_TUNABLES", "").split(":")}
    if any(variable in os.environ or tunable in tunables for _, _, variable, tunable in _SETTINGS):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for parameter, value, _, _ in _SETTINGS:
        mallopt(parameter, value)
