"""The split structure of the tests: the Euclidean metric with P = diag(+I_n, -I_n).

It is the structure of the flat product germ, ``conformal_flat_product_germ(n, "0")``,
at every point, written here as one ``PointStructure``.
"""

from __future__ import annotations

import numpy as np

from apmlab.tensors import PointStructure


def split_structure(dim: int, conformal_factor: float = 1.0) -> PointStructure:
    """c I with P = diag(+I_n, -I_n) in dimension ``dim`` = 2n."""
    n = dim // 2
    return PointStructure(conformal_factor * np.eye(dim), np.diag([1.0] * n + [-1.0] * n))
