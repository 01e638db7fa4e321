"""Reference routes shared by several test modules."""

import numpy as np


def pad(space, matrix, target):
    """Embed an operator into a space over the same modes with larger
    cutoffs; the entries of the added occupations are zero."""
    rows = [target.index[occ] for occ in space.basis]
    out = np.zeros((target.dim, target.dim), dtype=complex)
    out[np.ix_(rows, rows)] = matrix
    return out
