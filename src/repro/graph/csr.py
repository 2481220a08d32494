"""One compressed-sparse-row adjacency: the world's follow graphs, the
investment graph and the serve tier's follow index.

A :class:`CSR` is an ``int32`` column array sliced per row by an
``int64`` row-start array: row ``r``'s neighbours are
``indices[indptr[r]:indptr[r + 1]]``, ascending. Rows are dense ids
``0 .. n_rows - 1`` and columns lie in ``0 .. n_cols - 1``. It costs
4 bytes an edge plus 12 a row (row starts and degrees), where a Python
list of ints per row cost ≈60 bytes an edge.

The graph is immutable once built: every array is read-only.
:meth:`inverse` (column → rows, each inverse row ascending) is built on
first use and cached.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np


class CSR:
    """An immutable sparse adjacency with sorted rows."""

    __slots__ = ("indptr", "indices", "n_cols", "degree", "_starts",
                 "_columns", "_inverse")

    def __init__(self, indptr, indices, n_cols: int):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.n_cols = int(n_cols)
        if (len(self.indptr) < 1 or self.indptr[0] != 0
                or self.indptr[-1] != len(self.indices)
                or np.any(np.diff(self.indptr) < 0)):
            raise ValueError("indptr must rise from 0 to len(indices)")
        if len(self.indices) and (int(self.indices.min()) < 0
                                  or int(self.indices.max()) >= self.n_cols):
            raise ValueError(f"column ids must lie in [0, {self.n_cols})")
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        # indexing a memoryview yields Python ints, twice as fast as a
        # numpy scalar step: the per-request reads go through them
        self._starts = memoryview(self.indptr)
        self._columns = memoryview(self.indices)
        degrees = np.diff(self.indptr).astype(np.int32)
        degrees.flags.writeable = False
        #: row → number of columns; ``degree[r]`` is a Python int and
        #: ``np.asarray(degree)`` the whole column without a copy
        self.degree = memoryview(degrees)
        self._inverse: Optional[CSR] = None

    def __reduce__(self):
        return CSR, (self.indptr, self.indices, self.n_cols)

    # -------------------------------------------------------- constructors
    @classmethod
    def from_keys(cls, keys: np.ndarray, n_rows: int, n_cols: int) -> "CSR":
        """The graph of the edges ``keys = row * n_cols + col`` (``int64``,
        any order; a repeated edge is kept once). Sorts ``keys`` in place.
        """
        # sort and drop repeats: np.unique hashes first, which costs
        # several times the sort on these keys
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        counts = np.bincount(keys // n_cols, minlength=n_rows)
        np.remainder(keys, n_cols, out=keys)
        return cls(np.concatenate(([0], np.cumsum(counts))), keys, n_cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], n_cols: int) -> "CSR":
        """The graph whose row ``r`` is ``rows[r]``, kept as given."""
        lengths = np.fromiter((len(row) for row in rows), dtype=np.int64,
                              count=len(rows))
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.int32,
                              count=int(indptr[-1]))
        return cls(indptr, indices, n_cols)

    def select(self, keep: np.ndarray) -> "CSR":
        """The rows where the boolean mask ``keep`` is set, in order,
        over the same columns."""
        degrees = np.asarray(self.degree)
        return CSR(np.concatenate(([0], np.cumsum(degrees[keep]))),
                   self.indices[np.repeat(keep, degrees)], self.n_cols)

    # ----------------------------------------------------------- reads
    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.indices.nbytes + self.degree.nbytes

    def row(self, row: int) -> np.ndarray:
        """Row ``row``'s columns, ascending (a read-only view)."""
        return self.indices[self._starts[row]:self._starts[row + 1]]

    def ids(self, row: int) -> List[int]:
        """Row ``row``'s columns, ascending, as Python ints."""
        return self._columns[self._starts[row]:self._starts[row + 1]].tolist()

    def page(self, row: int, page: int,
             per_page: int) -> Tuple[List[int], int]:
        """1-indexed ``page`` of row ``row``: ``(ids, last_page)``, with
        the semantics of :func:`repro.net.http.paginate` on the row."""
        if page < 1:
            raise ValueError(f"page must be >= 1, got {page}")
        starts = self._starts
        start, stop = starts[row], starts[row + 1]
        last_page = max(1, -(-(stop - start) // per_page))
        low = start + (page - 1) * per_page
        return self.indices[low:min(low + per_page, stop)].tolist(), last_page

    def inverse(self) -> "CSR":
        """The transposed graph (column → rows), built once."""
        if self._inverse is None:
            order = np.argsort(self.indices, kind="stable")
            sources = np.repeat(np.arange(self.n_rows, dtype=np.int32),
                                np.asarray(self.degree))
            counts = np.bincount(self.indices, minlength=self.n_cols)
            self._inverse = CSR(np.concatenate(([0], np.cumsum(counts))),
                                sources[order], self.n_rows)
        return self._inverse


def position(ids: memoryview, key: int) -> int:
    """``key``'s index in the sorted ``ids`` (a memoryview), or -1."""
    at = bisect_left(ids, key)
    return at if at < len(ids) and ids[at] == key else -1
