"""Shared test helpers."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from tbdde import TbCandidate
from tbdde.defining import residual
from tbdde.eigenstructure import normalization


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


def _basis_residuals(basis, f1, f2):
    """The six chain/normalization identities of ``basis`` on (f1, f2) as
    residual magnitudes: (1)-(4) of ``tbdde.eigenstructure``, then (5) - 1 and (6)."""
    S = f1 + f2
    B = f2 + np.eye(f2.shape[0])
    p1, p2, q1, q2 = basis.phi1, basis.phi2, basis.psi1, basis.psi2
    n5, n6 = normalization(q1, q2, p1, p2, f2 @ p1, f2 @ p2)
    return np.array([
        np.max(np.abs(S @ p1)),
        np.max(np.abs(S @ p2 - B @ p1)),
        np.max(np.abs(q2 @ S)),
        np.max(np.abs(q1 @ S - q2 @ B)),
        abs(n5 - 1.0),
        abs(n6),
    ])


@pytest.fixture
def basis_residuals():
    """The basis identities' residual magnitudes, as a function (basis, f1, f2)."""
    return _basis_residuals


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


@pytest.fixture
def counted_calls(monkeypatch):
    """Count the calls to functions of a module from now on, as a function
    (module, *names) returning the dict of counts by name."""
    def count(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls
    return count


def _rank_deficient(rng, n):
    """A random n x n matrix of rank n - 1, its other singular values in [0.5, 2]."""
    U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
    return U @ np.diag(np.r_[rng.uniform(0.5, 2.0, n - 1), 0.0]) @ Vt


@pytest.fixture
def rank_deficient():
    """A random rank-(n-1) matrix, as a function (rng, n)."""
    return _rank_deficient
