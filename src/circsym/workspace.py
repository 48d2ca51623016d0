"""Scratch arrays that the samplers and the row-wise kernels reuse.

A sampler or kernel takes the temporary arrays it needs from
``temporaries`` or ``scratch``. Inside ``using(work)`` they come from the
``Workspace`` ``work``, which keeps one array per key and thread, grown to
the largest size asked for and handed out again to every later call. The
replication engine makes one workspace per call, so its chunks draw and
score without allocating. Outside ``using`` fresh arrays are returned, so a
single sample runs the same code. A scratch array's contents are undefined:
every caller writes one before reading it, so a workspace never carries a
value from one call into the next and draws do not depend on it.

Most steps call no other sampler or kernel while they hold their arrays:
the Best-Fisher batch, the cardioid's Newton steps, the reflection step and
the statistics run one after another, so ``temporaries`` hands all of them
the same arrays and the sampling and statistics phases share one set. A
step that holds an array across another step's draw takes it by name from
``scratch`` instead.
"""

import contextlib
import contextvars
import threading

import numpy as np

_active = contextvars.ContextVar("circsym_workspace", default=None)


class Workspace(threading.local):
    """The scratch arrays of one engine call; every thread has its own."""

    def __init__(self):
        self.arrays = {}


def scratch(name, size, dtype=np.float64):
    """A 1-D array of ``size`` elements of ``dtype`` held under ``name``,
    contents undefined."""
    work = _active.get()
    if work is None:
        return np.empty(size, dtype)
    array = work.arrays.get(name)
    if array is None or array.size < size or array.dtype != dtype:
        array = work.arrays[name] = np.empty(size, dtype)
    return array[:size]


def temporaries(size, count, dtype=np.float64):
    """``count`` scratch arrays of ``size`` elements of ``dtype`` for a step
    that calls no other sampler or kernel while it holds them."""
    return [scratch((np.dtype(dtype), i), size, dtype) for i in range(count)]


@contextlib.contextmanager
def using(work):
    """Run the block with the scratch arrays taken from ``work``."""
    token = _active.set(work)
    try:
        yield
    finally:
        _active.reset(token)
