"""Per-thread scratch arena for the allocation-free kernels.

The NLMASS, NLMNT2 and OUTPUT kernels write every intermediate into
preallocated buffers handed out here instead of allocating NumPy
temporaries.  The arena is bounded and thread-safe by construction:

* each thread owns its buffers (distributed ranks step in threads, and
  the block pool of :mod:`repro.core.model` runs kernels on up to
  ``cores - 1`` worker threads besides the caller, so a buffer shared
  between threads would be a data race);
* a thread holds one flat buffer per named slot and dtype, grown to the
  largest request it has seen, so its footprint is a few times the
  largest block's field size, however many blocks it steps.  Pool
  workers live as long as the process and keep their arenas, so the
  scratch memory of a process is bounded by its stepping threads
  (callers plus ``cores - 1`` workers) times one arena;
* a kernel asks :func:`views` for all of its slots at once, as C- or
  F-order ``reshape`` views of the buffers' prefixes.  The views are
  cached per kernel layout, and the cache is dropped whenever a buffer
  grows, so no stale view keeps an outgrown buffer alive.  A build
  requests each slot once.

Kernels share slot names: they run one after another on a thread, and
none holds a view across another kernel's call.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np


class _Arena(threading.local):
    def __init__(self) -> None:
        #: ``(slot, dtype) -> flat buffer``.
        self.buffers: dict[tuple, np.ndarray] = {}
        #: ``layout key -> views`` built by :func:`views`.
        self.layouts: dict[tuple, object] = {}


_ARENA = _Arena()

#: Cached layouts per thread; a process that steps ever new block shapes
#: rebuilds views instead of accumulating them.
_MAX_LAYOUTS = 256


def views(key: tuple, build: Callable) -> object:
    """The cached views for *key*, made by ``build(slot)`` on a miss.

    ``slot(name, shape, dtype, order="C")`` returns a ``shape`` view of
    this thread's buffer ``name``, growing it if it is too small.  *key*
    must identify everything *build* depends on (kernel, shape, dtype,
    order).
    """
    arena = _ARENA
    cached = arena.layouts.get(key)
    if cached is None:
        grown = []

        def slot(name, shape, dtype, order="C"):
            size = shape[0] * shape[1]
            bkey = (name, np.dtype(dtype))
            buf = arena.buffers.get(bkey)
            if buf is None or buf.size < size:
                buf = arena.buffers[bkey] = np.empty(size, dtype)
                grown.append(bkey)
            return buf[:size].reshape(shape, order=order)

        cached = build(slot)
        if grown or len(arena.layouts) >= _MAX_LAYOUTS:
            arena.layouts.clear()
        arena.layouts[key] = cached
    return cached


def arena_nbytes() -> int:
    """Bytes held by the calling thread's scratch buffers."""
    return sum(buf.nbytes for buf in _ARENA.buffers.values())


def copy_margins(out: np.ndarray, src: np.ndarray, rows: slice, cols: slice) -> None:
    """Copy every element of *src* outside ``[rows, cols]`` into *out*.

    A kernel that computes ``out[rows, cols]`` itself uses this instead
    of ``out[...] = src``, so it does not write the interior twice.
    """
    out[: rows.start] = src[: rows.start]
    out[rows.stop :] = src[rows.stop :]
    out[rows, : cols.start] = src[rows, : cols.start]
    out[rows, cols.stop :] = src[rows, cols.stop :]
