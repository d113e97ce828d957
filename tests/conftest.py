"""Shared test helpers."""

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
