"""Dimension formulas for the moduli spaces, with a parameter-count cross-check.

The dimension counts independent continuous parameters: one for the maximum
curvature, one level per saddle, and the kernel dimension of the balance
matrix for the weights.  The closed forms are 2g + 2k (no cusp), 2g + 2k +
q - 1 (q cusps) and 1 for the bare football strata, with k replaced by the
saddle count j0 on refined spaces.  The cross-check counts the kernel as
arcs minus :func:`hcmu.balance.balance_rank`, a union-find over the arcs
that uses neither the closed forms nor the balance solver.
"""
from __future__ import annotations

from typing import Optional

from .balance import balance_rank
from .constraints import as_angle_vector, check_existence, check_refined
from .dataset import DataSet, realized_prescription
from .errors import AssertionFailure


def dimension(g: int, alpha) -> Optional[int]:
    """Real dimension of the moduli space, or None when it is empty.

    With k > 0 integer entries this is the refined dimension with every
    integer entry a saddle; a football stratum (k = 0) has dimension 1.
    """
    alpha = as_angle_vector(alpha)
    if alpha.k > 0:
        return dimension_refined(g, alpha, range(1, alpha.k + 1))
    return 1 if check_existence(g, alpha) else None


def dimension_refined(g: int, alpha, Z) -> Optional[int]:
    """Dimension of the refined space with saddle set Z, or None if empty."""
    alpha = as_angle_vector(alpha)
    if not check_refined(g, alpha, Z):
        return None
    j0 = len(frozenset(Z))
    if alpha.q_zeros > 0:
        return 2 * g + 2 * j0 + alpha.q_zeros - 1
    return 2 * g + 2 * j0


def dimension_crosscheck(ds: DataSet) -> int:
    """1 (for K0) + #saddle levels + weight-kernel dimension.

    Must equal the refined formula for the surface's own prescription; a
    mismatch is raised as a model bug.
    """
    ma = ds.angulation
    dim = 1 + ma.num_faces + (ma.num_arcs - balance_rank(ma, ds.ratio))
    g, alpha, Z = realized_prescription(ds)
    expected = dimension_refined(g, alpha, Z)
    if dim != expected:
        raise AssertionFailure(
            f"parameter count {dim} != refined dimension {expected}"
        )
    return dim
