"""Scratch arrays that the samplers and the row-wise kernels reuse.

A sampler or kernel takes the temporary arrays it needs from
``temporaries``. Inside ``using()`` they come from the arrays the running
thread keeps, one per dtype and position, grown to the largest size asked
for and handed out again to every later call. The replication engine runs
each block inside ``using()``, so its chunks draw and score without
allocating and a thread's arrays serve it from one engine call to the
next; they are freed when the thread ends. Outside ``using`` fresh arrays
are returned and nothing is kept, so a single sample runs the same code.
Every caller writes a temporary array before reading it, so no value
carries from one call into the next and draws do not depend on them.

One rule keeps this safe: no step calls another sampler or kernel while it
holds its temporaries. The rejection batches, the reflection step, the
mixture's centres and the statistics run one after another, so
``temporaries`` hands all of them the same arrays and the sampling and
statistics phases share one set. The random inputs that the models of a
skewness grid share (``distributions``) are held while each model maps
them and the kernels score its sample, so they live in a second set, the
``held`` arrays, which only a skewed model's ``_inputs`` takes.
"""

import contextlib
import threading

import numpy as np


class _Store(threading.local):
    """Each thread's kept arrays, and whether ``using`` is on in it."""

    def __init__(self):
        self.arrays, self.on = {}, False


_store = _Store()


def temporaries(size, count, dtype=np.float64, held=False):
    """``count`` 1-D arrays of ``size`` elements of ``dtype``, contents
    undefined, for a step that calls no other sampler or kernel while it
    holds them; with ``held``, from the second set (positions -1, -2, ...),
    for inputs that are held while other samplers and kernels run."""
    dtype = np.dtype(dtype)
    if not _store.on:
        return [np.empty(size, dtype) for _ in range(count)]
    arrays = []
    for i in range(count):
        key = (dtype, ~i if held else i)
        array = _store.arrays.get(key)
        if array is None or array.size < size:
            array = _store.arrays[key] = np.empty(size, dtype)
        arrays.append(array[:size])
    return arrays


@contextlib.contextmanager
def using():
    """Run the block with the scratch arrays the running thread keeps."""
    outer, _store.on = _store.on, True
    try:
        yield
    finally:
        _store.on = outer
