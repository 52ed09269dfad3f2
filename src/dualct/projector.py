"""The projector's matrix type: a CSR matrix whose transpose is a CSC view
of the same arrays, built once with the matrix.

scipy's own ``.T`` makes a new CSC matrix on every call, which costs tens
of microseconds per adjoint product at 64^2. Every product runs on the
calling thread and is scipy's own.
"""

from __future__ import annotations

import scipy.sparse as sp


class ProjectorMatrix(sp.csr_matrix):
    """A CSR matrix with a transpose view built once. Made by
    :func:`projector_matrix`; a matrix scipy derives from it is a plain
    one."""

    _t = None

    def transpose(self, axes=None, copy=False):
        if self._t is None or axes is not None or copy:
            return super().transpose(axes=axes, copy=copy)
        return self._t


def projector_matrix(data, indices, indptr, shape) -> ProjectorMatrix:
    """The matrix of these CSR arrays, kept as they are (not copied).
    ``sum_duplicates`` runs in place: it sorts each row's columns, and
    would add any repeated column."""
    mat = ProjectorMatrix((data, indices, indptr), shape=shape)
    mat.sum_duplicates()
    mat._t = sp.csc_matrix((mat.data, mat.indices, mat.indptr), shape=shape[::-1])
    return mat
