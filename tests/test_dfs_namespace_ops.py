"""Tests for DFS rename/copy/disk-usage and the namespace index."""

import posixpath

import pytest

from repro.dfs.filesystem import MiniDfs, _normalize
from repro.util.errors import NotFoundError, StorageError


@pytest.fixture()
def dfs():
    store = MiniDfs(num_datanodes=3, block_size=8)
    store.create("/d/a", b"hello")
    store.create("/d/b", b"worldwide")
    return store


class TestRename:
    def test_moves_content(self, dfs):
        dfs.rename("/d/a", "/e/a")
        assert dfs.read("/e/a") == b"hello"
        assert not dfs.exists("/d/a")

    def test_missing_source(self, dfs):
        with pytest.raises(NotFoundError):
            dfs.rename("/ghost", "/x")

    def test_existing_destination(self, dfs):
        with pytest.raises(StorageError):
            dfs.rename("/d/a", "/d/b")

    def test_overwriting_a_file_with_itself_keeps_it(self, dfs):
        dfs.rename("/d/a", "/d/a", overwrite=True)
        assert dfs.read("/d/a") == b"hello"
        assert dfs.listdir("/d") == ["/d/a", "/d/b"]

    def test_stat_path_updated(self, dfs):
        dfs.rename("/d/a", "/moved")
        assert dfs.stat("/moved").path == "/moved"


class TestCopy:
    def test_independent_copy(self, dfs):
        dfs.copy("/d/a", "/d/a2")
        assert dfs.read("/d/a2") == b"hello"
        dfs.delete("/d/a")
        assert dfs.read("/d/a2") == b"hello"  # blocks are independent

    def test_copy_to_existing_rejected(self, dfs):
        with pytest.raises(StorageError):
            dfs.copy("/d/a", "/d/b")


class TestDiskUsage:
    def test_sums_directory(self, dfs):
        assert dfs.disk_usage("/d") == len(b"hello") + len(b"worldwide")

    def test_empty_directory(self, dfs):
        assert dfs.disk_usage("/nothing") == 0

    def test_after_rename(self, dfs):
        before = dfs.disk_usage("/d")
        dfs.rename("/d/b", "/elsewhere/b")
        assert dfs.disk_usage("/d") == before - len(b"worldwide")


# ------------------------------------------------------- namespace index
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: few enough paths that ops collide; siblings whose names extend a
#: directory's name (``b0``, ``bc``, ``b-``, ``b.``) sort around ``b/``
_PATHS = ["/x", "/a", "/a/b", "/a/b/x", "/a/b/y", "/a/b/part-00000",
          "/a/b/c/part-00001", "/a/b/.x.tmp-7", "/a/b/.hidden",
          "/a/b/c/.part-00001.tmp-2", "/a/b0/x", "/a/bc/x", "/a/b-/x",
          "/a/b./part-3", "/a/B/x", "/part-9"]
_PREFIXES = ["/", "/a", "/a/", "/a/b", "/a//b/", "/a/b/c", "/a/b0",
             "/a/b/../b", "/x", "/nothing", "/a/b/x"]
_path = st.sampled_from(_PATHS)
_ops = st.lists(st.one_of(
    st.tuples(st.just("create"), _path),
    st.tuples(st.just("write_atomic"), _path),
    st.tuples(st.just("delete"), _path),
    st.tuples(st.just("rename"), _path, _path, st.booleans()),
    st.tuples(st.just("sweep_temps"), st.sampled_from(_PREFIXES)),
), max_size=30)


def _brute_listdir(dfs, prefix):
    prefix = posixpath.normpath(prefix).rstrip("/") + "/"
    return sorted(p for p in dfs._files if p.startswith(prefix))


def _brute_temps(dfs, prefix):
    return [p for p in _brute_listdir(dfs, prefix)
            if posixpath.basename(p).startswith(".")
            and ".tmp-" in posixpath.basename(p)]


class TestNamespaceIndex:
    """Every directory question is answered from the sorted path index;
    the answers are those of a scan over the whole file table."""

    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_scan_of_the_file_table(self, ops):
        dfs = MiniDfs(num_datanodes=3, block_size=8)
        for step, (op, *args) in enumerate(ops):
            if op == "sweep_temps":
                expected = _brute_temps(dfs, args[0])
                assert dfs.sweep_temps(args[0]) == expected
                assert _brute_temps(dfs, args[0]) == []
            else:
                if op in ("create", "write_atomic"):
                    args.append(b"x" * (step % 19))
                try:
                    getattr(dfs, op)(*args)
                except (NotFoundError, StorageError):
                    pass        # refused ops must leave no trace either
            assert dfs._paths == sorted(dfs._files)
            assert dfs.file_count == len(dfs._files)
            for prefix in _PREFIXES:
                listed = _brute_listdir(dfs, prefix)
                assert dfs.listdir(prefix) == listed
                assert dfs.glob_parts(prefix) == [
                    p for p in listed
                    if posixpath.basename(p).startswith("part-")]
                assert dfs.disk_usage(prefix) == sum(
                    dfs._files[p].length for p in listed)

    def test_a_directory_is_not_its_longer_named_siblings(self):
        dfs = MiniDfs(num_datanodes=3)
        for path in ("/a/b", "/a/b/x", "/a/b0/x", "/a/bc/x", "/a/b-/x"):
            dfs.create(path, b"1")
        assert dfs.listdir("/a/b") == ["/a/b/x"]
        assert dfs.listdir("/") == sorted(dfs._files)

    @given(segments=st.lists(st.sampled_from(
        ["", ".", "..", "a", "b.c", ".hid", "...", "a.", "part-0"]),
        max_size=6), absolute=st.booleans(), trailing=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_normalize_is_normpath_for_absolute_paths(
            self, segments, absolute, trailing):
        path = (("/" if absolute else "") + "/".join(segments)
                + ("/" if trailing else ""))
        if path.startswith("/"):
            assert _normalize(path) == posixpath.normpath(path)
        else:
            with pytest.raises(StorageError):
                _normalize(path)
