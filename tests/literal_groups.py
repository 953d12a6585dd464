"""GL_n(F_q) and SL_n(F_q) for the tests, enumerated literally.

Every one of the q^(n*n) matrices is built as a MatrixFq and kept when its
``det()`` is nonzero: an oracle that shares nothing with the row walk of
``matrix_fq.gl_blocks`` but elimination.  ``walked_members`` reads the walk's
blocks back into the same (matrix, det) form, so the two compare directly.
"""

import itertools
from functools import lru_cache

from matgauss.matrix_fq import MatrixFq, gl_blocks


@lru_cache(maxsize=None)
def literal_gl(field, n):
    """GL_n(F_q) as (X, det X) pairs, X in lexicographic order of its entries."""
    rows = list(itertools.product(range(field.q), repeat=n))
    out = []
    for mat in itertools.product(rows, repeat=n):
        x = MatrixFq(field, mat)
        det = x.det()
        if det.enc:
            out.append((x, det))
    return tuple(out)


def literal_sl(field, n):
    """SL_n(F_q): the matrices of ``literal_gl`` with det 1."""
    one = field.one()
    return [x for x, det in literal_gl(field, n) if det == one]


def walked_members(field, n):
    """The (X, det encoding) members that ``gl_blocks`` lists, in its order."""
    last_rows = list(itertools.product(range(field.q), repeat=n))
    out = []
    for prefix, _tr, dets in gl_blocks(field, n):
        head = [prefix[i * n:(i + 1) * n] for i in range(n - 1)]
        out.extend((MatrixFq(field, head + [x]), d) for x, d in zip(last_rows, dets) if d)
    return out
