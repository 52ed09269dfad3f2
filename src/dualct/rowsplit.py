"""The projector's matrix type: a CSR matrix whose products on a vector
run as two row halves, on the two lanes of :mod:`dualct.lanes`.

A sparse product on one vector is a single-threaded, memory-bound loop,
so a large ``A`` splits its rows into two fixed halves of about equal
nonzeros (Williams et al., SC'07). The halves are views of ``A``'s
arrays; only the second half's ``indptr`` is shifted. The forward product
concatenates the halves' results, so its bytes are those of the whole
matrix. The adjoint adds the first half's back-projection and then the
second's, whichever thread finishes first, so its bytes do not depend on
the CPU count or the scheduling; they differ from the unsplit product's
only by that summation order. Below :data:`SPLIT_NNZ` nonzeros nothing
is split and every product is scipy's own.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .lanes import both, lane_count

# nonzeros from which products are split: at 64^2 (0.49M) a split adjoint
# took 0.74 ms against 0.56, at 128^2 (3.84M) 4.2 against 7.1
SPLIT_NNZ = 1_000_000


def _is_vector(other, n: int) -> bool:
    return isinstance(other, np.ndarray) and other.shape == (n,)


class ProjectorMatrix(sp.csr_matrix):
    """A CSR matrix with a transpose view built once and, from
    :data:`SPLIT_NNZ` nonzeros, products on a vector split by row halves.
    Made by :func:`projector_matrix`; a matrix scipy derives from it is
    a plain one."""

    _t = None
    _halves = None

    @property
    def threads(self) -> int:
        """Threads a product on a vector runs on."""
        return 1 if self._halves is None else lane_count()

    def transpose(self, axes=None, copy=False):
        if self._t is None or axes is not None or copy:
            return super().transpose(axes=axes, copy=copy)
        return self._t

    def __matmul__(self, other):
        if self._halves is None or not _is_vector(other, self.shape[1]):
            return super().__matmul__(other)
        top, bottom = self._halves
        return np.concatenate(both(lambda: top @ other, lambda: bottom @ other))


class _ProjectorTranspose(sp.csc_matrix):
    """The CSC view of a :class:`ProjectorMatrix`, split as it is."""

    _halves = None

    def __matmul__(self, other):
        if self._halves is None or not _is_vector(other, self.shape[1]):
            return super().__matmul__(other)
        top, bottom = self._halves
        cut = top.shape[1]
        first, second = both(lambda: top @ other[:cut], lambda: bottom @ other[cut:])
        first += second
        return first


def projector_matrix(data, indices, indptr, shape) -> ProjectorMatrix:
    """The matrix of these CSR arrays, kept as they are (not copied).
    ``sum_duplicates`` runs in place: it sorts each row's columns, and
    would add any repeated column."""
    mat = ProjectorMatrix((data, indices, indptr), shape=shape)
    mat.sum_duplicates()
    data, indices, indptr = mat.data, mat.indices, mat.indptr
    mat._t = _ProjectorTranspose((data, indices, indptr), shape=shape[::-1])
    if mat.nnz >= SPLIT_NNZ:
        n_rows, n_cols = shape
        cut = int(np.searchsorted(indptr, indptr[-1] // 2))
        k = indptr[cut]
        top = sp.csr_matrix((data[:k], indices[:k], indptr[:cut + 1]), shape=(cut, n_cols))
        bottom = sp.csr_matrix((data[k:], indices[k:], indptr[cut:] - k),
                               shape=(n_rows - cut, n_cols))
        mat._halves = (top, bottom)
        mat._t._halves = (top.T, bottom.T)
    return mat
