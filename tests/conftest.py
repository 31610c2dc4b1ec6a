import collections

import numpy as np
import pytest


@pytest.fixture
def eigen_calls(monkeypatch):
    """Counter of the numpy.linalg eigh, eigvalsh and qr calls made while
    the test runs, keyed by function name. Its `stacks` attribute lists, per
    function name, the number of matrices each call decomposed."""
    counts = collections.Counter()
    counts.stacks = collections.defaultdict(list)

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name] += 1
            counts.stacks[name].append(int(np.prod(np.shape(a)[:-2], dtype=int)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts
