"""Scratch arrays that the samplers and the row-wise kernels reuse.

A sampler or kernel takes the temporary arrays it needs from
``temporaries``. Inside ``using(work)`` they come from the ``Workspace``
``work``, which keeps one array per dtype, position and thread, grown to
the largest size asked for and handed out again to every later call. The
replication engine holds one workspace for the life of the module, so its
chunks draw and score without allocating and a thread's arrays serve it
from one engine call to the next; they are freed when the thread ends.
Outside ``using`` fresh arrays are returned and nothing is kept, so a
single sample runs the same code. A temporary array's contents are undefined:
every caller writes one before reading it, so a workspace never carries a
value from one call into the next and draws do not depend on it.

One rule keeps this safe: no step calls another sampler or kernel while it
holds its temporaries. The rejection batches, the reflection step, the
mixture's coins and the statistics run one after another, so
``temporaries`` hands all of them the same arrays and the sampling and
statistics phases share one set.
"""

import contextlib
import contextvars
import threading

import numpy as np

_active = contextvars.ContextVar("circsym_workspace", default=None)


class Workspace(threading.local):
    """Scratch arrays kept across calls; every thread has its own."""

    def __init__(self):
        self.arrays = {}


def temporaries(size, count, dtype=np.float64):
    """``count`` 1-D arrays of ``size`` elements of ``dtype``, contents
    undefined, for a step that calls no other sampler or kernel while it
    holds them."""
    dtype = np.dtype(dtype)
    work = _active.get()
    if work is None:
        return [np.empty(size, dtype) for _ in range(count)]
    arrays = []
    for i in range(count):
        array = work.arrays.get((dtype, i))
        if array is None or array.size < size:
            array = work.arrays[dtype, i] = np.empty(size, dtype)
        arrays.append(array[:size])
    return arrays


@contextlib.contextmanager
def using(work):
    """Run the block with the scratch arrays taken from ``work``."""
    token = _active.set(work)
    try:
        yield
    finally:
        _active.reset(token)
