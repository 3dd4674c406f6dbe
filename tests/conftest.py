import math

import numpy as np
import pytest

from sphere_sga.hilbert import monomials, orthonormalize, shift_map
from sphere_sga.operators import OperatorSet


@pytest.fixture(scope="session")
def space4():
    return orthonormalize(4)


@pytest.fixture(scope="session")
def ops4(space4):
    return OperatorSet.build(space4)


@pytest.fixture(scope="session")
def ops6():
    return OperatorSet.build(orthonormalize(6))


def shift_matrix(degree, delta, k=None):
    """The integer matrix of a shift map: its image of the int64 identity over monomials(degree)."""
    return shift_map(degree, [delta], [k], np.eye(len(monomials(degree)), dtype=np.int64))[0]


def column_classes(space) -> np.ndarray:
    """The exponent-parity class (x1 the bit 8 .. x4 the bit 1) of every natural basis column, read
    from the monomials it holds: each column holds monomials of one class only."""
    out = []
    for n, b in enumerate(space.bases):
        pattern = (np.array(monomials(n)).reshape(-1, 4) % 2) @ np.array([8, 4, 2, 1])
        for column in b.T:
            (c,) = set(pattern[np.flatnonzero(column)].tolist())
            out.append(c)
    return np.array(out)


def grade_matrix(space, grade: int) -> np.ndarray:
    """True at the dense entries an operator of the given grade may hold: rows of class c ^ grade
    in the columns of class c."""
    classes = column_classes(space)
    return (classes[:, None] ^ classes) == grade


def definite_grade_matrix(space, rng, grade: int, phase=1) -> np.ndarray:
    """A random dense matrix that is nonzero exactly on the entries of the given grade."""
    return phase * np.where(grade_matrix(space, grade), rng.standard_normal((space.dim, space.dim)), 0.0)


def level_cut(space, top: int) -> int:
    """The number of natural basis columns of levels <= top: a column prefix in natural order."""
    return 0 if top < 0 else space.offsets[min(top, space.n_max) + 1]


def dense_residual(lhs: np.ndarray, rhs: np.ndarray, space, top: int) -> float:
    """``verify.rel_residual``'s formula on dense matrices, both sides cut to the columns of
    levels <= top: the reference for the operator residual through ``OperatorRep.norm``."""
    cut = level_cut(space, top)
    if cut == 0:
        return 0.0
    diff = lhs[:, :cut] - rhs[:, :cut]
    denom = max(1.0, np.linalg.norm(lhs[:, :cut]), np.linalg.norm(rhs[:, :cut]))
    return float(np.linalg.norm(diff) / denom)


def _measured_period(traj) -> float:
    """2 pi / w, w the angular frequency from a linear fit of the unwrapped great-circle phase;
    inf for a trajectory that does not move."""
    x0, p0 = traj.xs[0], traj.ps[0]
    pn = np.linalg.norm(p0)
    if pn == 0:
        return math.inf
    phase = np.unwrap(np.arctan2(traj.xs @ (p0 / pn), traj.xs @ x0))
    w = float(abs(np.polyfit(traj.times, phase, 1)[0]))
    return math.inf if w == 0 else 2.0 * math.pi / w


@pytest.fixture(scope="session")
def measured_period():
    """The period of a trajectory measured from its samples, independent of the closed form."""
    return _measured_period
