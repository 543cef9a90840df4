"""Array helpers shared across layers.

``np.unique(x)`` with no ``return_*`` flag takes a hash path on numpy 2.x
that is much slower than sorting: about 4× at 100 keys and 60× at 1.2·10⁶
keys on numpy 2.4.  :func:`sorted_unique` sorts and drops repeats instead,
with identical output.  The ``bare-unique`` analyzer rule keeps bare
``np.unique`` calls out of ``src/repro``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct entries of ``values`` (flattened), like ``np.unique``.

    Meant for integer and boolean keys: a NaN never equals itself, so every
    NaN of a float array would be kept.
    """
    ordered = np.sort(np.ravel(values))
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
