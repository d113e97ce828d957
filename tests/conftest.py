"""Shared test helpers."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from tbdde import TbCandidate, residual


def _fd_jacobian(model, v, L):
    """Forward-difference Jacobian of the whole defining-system residual.

    An oracle independent of the block assembly in ``tbdde.defining``: it
    only evaluates the residual, with a step of sqrt(eps) relative to each
    unknown.
    """
    n = model.n
    base = v.pack()
    r0 = residual(model, v, L)
    J = np.zeros((3 * n + 2, 3 * n + 2))
    for j in range(3 * n + 2):
        h = np.sqrt(np.finfo(float).eps) * max(1.0, abs(base[j]))
        vp = base.copy()
        vp[j] += h
        J[:, j] = (residual(model, TbCandidate.unpack(vp, n), L) - r0) / h
    return J


@pytest.fixture
def fd_jacobian():
    """The whole-residual forward-difference Jacobian, as a function (model, v, L)."""
    return _fd_jacobian


def _counted(model, fields=("f", "d1", "d2")):
    """A copy of ``model`` whose named callbacks count their calls.

    Returns (model, counts); ``counts[field]`` is the number of calls so far.
    """
    counts = Counter()

    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    wrapped = {f: wrap(f, getattr(model, f)) for f in fields}
    return dataclasses.replace(model, **wrapped), counts


@pytest.fixture
def counted_model():
    """Wrap a model's callbacks in call counters, as a function (model, fields)."""
    return _counted
