"""The CSR adjacency under the world's follow graphs, the investment
graph and the serve follow index."""

import pickle
import random

import numpy as np
import pytest

from repro.graph.csr import CSR
from repro.net.http import paginate


def _random_rows(seed, n_rows=40, n_cols=30):
    rng = random.Random(seed)
    return [sorted(rng.sample(range(n_cols), rng.randrange(0, 12)))
            for _ in range(n_rows)]


class TestConstruction:
    def test_from_keys_sorts_rows_and_drops_repeats(self):
        rows, cols = [2, 0, 2, 0, 2], [1, 3, 1, 0, 0]
        keys = np.array(rows, dtype=np.int64) * 5 + cols
        graph = CSR.from_keys(keys, 4, 5)
        assert [graph.row(r).tolist() for r in range(4)] \
            == [[0, 3], [], [0, 1], []]
        assert graph.num_edges == 4
        assert graph.indptr.dtype == np.int64
        assert graph.indices.dtype == np.int32

    def test_from_rows_matches_from_keys(self):
        rows = _random_rows(3)
        keys = [r * 30 + c for r, row in enumerate(rows) for c in row]
        random.Random(5).shuffle(keys)
        by_keys = CSR.from_keys(np.array(keys + keys[:7], dtype=np.int64),
                                len(rows), 30)
        by_rows = CSR.from_rows(rows, 30)
        assert np.array_equal(by_keys.indptr, by_rows.indptr)
        assert np.array_equal(by_keys.indices, by_rows.indices)

    def test_from_keys_of_no_edges(self):
        graph = CSR.from_keys(np.empty(0, dtype=np.int64), 3, 4)
        assert graph.indptr.tolist() == [0, 0, 0, 0]
        assert graph.num_edges == 0 and graph.n_cols == 4
        none = CSR.from_keys(np.empty(0, dtype=np.int64), 0, 0)
        assert none.n_rows == 0 and none.indptr.tolist() == [0]

    def test_from_rows_of_no_rows_and_empty_rows(self):
        assert CSR.from_rows([], 5).indptr.tolist() == [0]
        graph = CSR.from_rows([[], []], 5)
        assert graph.n_rows == 2 and graph.num_edges == 0

    def test_rejects_bad_row_starts_and_columns(self):
        with pytest.raises(ValueError):
            CSR([0, 2, 1], [0, 1], 3)
        with pytest.raises(ValueError):
            CSR([0, 3], [0, 1], 3)
        with pytest.raises(ValueError):
            CSR([0, 2], [0, 3], 3)

    def test_arrays_are_read_only(self):
        graph = CSR.from_rows([[1], [0, 2]], 3)
        with pytest.raises(ValueError):
            graph.indices[0] = 2
        with pytest.raises(ValueError):
            graph.row(1)[0] = 1

    def test_pickles(self):
        graph = CSR.from_rows(_random_rows(9), 30)
        copy = pickle.loads(pickle.dumps(graph))
        assert np.array_equal(copy.indices, graph.indices)
        assert copy.degree[4] == graph.degree[4]


class TestReads:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_degrees_and_pages_match_the_lists(self, seed):
        rows = _random_rows(seed)
        graph = CSR.from_rows(rows, 30)
        assert graph.degree.tolist() == [len(row) for row in rows]
        for r, row in enumerate(rows):
            assert graph.row(r).tolist() == row
            assert graph.degree[r] == len(row)
            assert type(graph.degree[r]) is int
            for page in range(1, 5):
                ids, last = graph.page(r, page, 4)
                assert (ids, last) == paginate(row, page, 4)
                assert all(type(i) is int for i in ids)

    def test_ids_are_the_row_as_python_ints(self):
        rows = _random_rows(7)
        graph = CSR.from_rows(rows, 30)
        for r, row in enumerate(rows):
            assert graph.ids(r) == row
            assert all(type(i) is int for i in graph.ids(r))

    def test_empty_rows_and_graphs_read_empty(self):
        graph = CSR.from_keys(np.empty(0, dtype=np.int64), 3, 4)
        for r in range(3):
            assert graph.row(r).tolist() == [] and graph.ids(r) == []
            assert graph.degree[r] == 0
            assert graph.page(r, 1, 10) == ([], 1)
            assert graph.page(r, 2, 10) == paginate([], 2, 10)
        inverse = graph.inverse()
        assert inverse.n_rows == 4 and inverse.n_cols == 3
        assert inverse.indptr.tolist() == [0] * 5
        assert CSR.from_rows([], 0).inverse().indptr.tolist() == [0]

    def test_page_zero_is_rejected(self):
        with pytest.raises(ValueError):
            CSR.from_rows([[1]], 2).page(0, 0, 10)

    @pytest.mark.parametrize("seed", range(5))
    def test_inverse_lists_sources_ascending(self, seed):
        rows = _random_rows(seed)
        graph = CSR.from_rows(rows, 30)
        inverse = graph.inverse()
        assert inverse.n_rows == 30 and inverse.n_cols == len(rows)
        for c in range(30):
            assert inverse.row(c).tolist() \
                == [r for r, row in enumerate(rows) if c in row]
        assert graph.inverse() is inverse
        back = inverse.inverse()
        assert np.array_equal(back.indptr, graph.indptr)
        assert np.array_equal(back.indices, graph.indices)

    def test_nbytes_counts_every_array(self):
        graph = CSR.from_rows([[0, 1], [1]], 2)
        assert graph.nbytes == 3 * 8 + 3 * 4 + 2 * 4


class TestSelect:
    @pytest.mark.parametrize("seed", range(5))
    def test_select_keeps_the_chosen_rows_in_order(self, seed):
        rows = _random_rows(seed)
        keep = np.array([random.Random(seed + r).random() < 0.5
                         for r in range(len(rows))])
        graph = CSR.from_rows(rows, 30).select(keep)
        assert graph.n_cols == 30
        assert [graph.ids(r) for r in range(graph.n_rows)] \
            == [row for row, kept in zip(rows, keep) if kept]

    def test_select_nothing_and_everything(self):
        graph = CSR.from_rows(_random_rows(2), 30)
        assert graph.select(np.zeros(graph.n_rows, bool)).indptr.tolist() \
            == [0]
        every = graph.select(np.ones(graph.n_rows, bool))
        assert np.array_equal(every.indptr, graph.indptr)
        assert np.array_equal(every.indices, graph.indices)
        empty = CSR.from_rows([], 3).select(np.zeros(0, bool))
        assert empty.n_rows == 0 and empty.num_edges == 0
