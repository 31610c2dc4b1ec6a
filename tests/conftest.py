import collections

import numpy as np
import pytest


@pytest.fixture
def eigen_calls(monkeypatch):
    """Counter of the numpy.linalg eigh, eigvalsh and qr calls made while
    the test runs, keyed by function name."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts
