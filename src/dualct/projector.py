"""The projector's operator: the traced rows of the first of ``q`` quarter
turns of the scan, and the other views' rows as those rows applied to the
image turned by whole quarter turns.

On a square grid a view a quarter turn on sees the same chords through
pixels turned by 90 degrees about the grid's origin, so block ``j`` of
``A`` is ``rows @ x[g_j]``, with ``g_j`` the flat pixel indices turned by
``j`` quarter turns (``np.rot90``), and its adjoint ``(rows.T @ r_j)[g_j^-1]``.
Only ``rows`` is stored (STIR keeps one view of each symmetry orbit the
same way). With ``q = 1`` every product is one scipy call on ``rows``.

The adjoint is a CSC view of the same arrays, built once with the rows:
scipy's own ``.T`` makes a new CSC matrix on every call, which costs tens
of microseconds per adjoint product at 64^2. Every product runs on the
calling thread.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


def _quarter_turn_gathers(n: int, q: int) -> list[np.ndarray]:
    """``g_j`` for ``j`` in ``1..q-1``: the flat indices of an ``n x n``
    image turned by ``j`` quarter turns, so that ``x[g_j]`` is ``x`` turned."""
    idx = np.arange(n * n, dtype=np.intp).reshape(n, n)
    return [np.rot90(idx, j).ravel() for j in range(1, q)]


class ProjectorAdjoint:
    """``A.T`` of a :class:`ProjectorMatrix`: the sum over quarter turns of
    the stored rows' transpose, each scattered back through its turn."""

    def __init__(self, rows_t: sp.csc_matrix, scatters: list[np.ndarray], shape):
        self.shape = shape
        self._rows_t = rows_t
        self._scatters = scatters

    def __matmul__(self, r):
        rows_t = self._rows_t
        m = rows_t.shape[1]
        out = rows_t @ r[:m]  # all of r when q = 1
        for j, s in enumerate(self._scatters, 1):
            out += (rows_t @ r[j * m:(j + 1) * m]).take(s)
        return out


class ProjectorMatrix:
    """``A`` as its stored rows and ``q - 1`` quarter-turn gathers. Made by
    :func:`projector_matrix`.

    ``shape`` is the full ``A``'s; ``nnz``, ``data``, ``indices`` and
    ``indptr`` are the stored rows'. ``.T`` is built once with it.
    """

    def __init__(self, rows: sp.csr_matrix, quarter_turns: int):
        m, n_pix = rows.shape
        self.quarter_turns = quarter_turns
        self.shape = (quarter_turns * m, n_pix)
        self._rows = rows
        self.nnz, self.data, self.indices, self.indptr = (rows.nnz, rows.data, rows.indices,
                                                          rows.indptr)
        self._gathers = _quarter_turn_gathers(math.isqrt(n_pix), quarter_turns)
        self._scatters = [np.argsort(g) for g in self._gathers]
        self.T = ProjectorAdjoint(sp.csc_matrix((rows.data, rows.indices, rows.indptr),
                                                shape=(n_pix, m)),
                                  self._scatters, (n_pix, self.shape[0]))

    def __matmul__(self, x):
        rows = self._rows
        if not self._gathers:
            return rows @ x
        return np.concatenate([rows @ x] + [rows @ x.take(g) for g in self._gathers])

    def toarray(self) -> np.ndarray:
        """The full ``A``, dense."""
        dense = self._rows.toarray()
        return np.vstack([dense] + [dense[:, s] for s in self._scatters])


def projector_matrix(data, indices, indptr, shape, quarter_turns: int) -> ProjectorMatrix:
    """``A`` whose first ``1/quarter_turns`` of rows are these CSR arrays,
    kept as they are (not copied); ``shape`` is the stored rows'. For
    ``quarter_turns > 1`` the grid is square. ``sum_duplicates`` runs in
    place: it sorts each row's columns, and would add any repeated column."""
    rows = sp.csr_matrix((data, indices, indptr), shape=shape)
    rows.sum_duplicates()
    return ProjectorMatrix(rows, quarter_turns)
