"""``FollowIndex`` against the dict fold it replaced.

The serve tier used to fold every landed follow edge into a
``user → sorted [(dst_type, dst_id)]`` dict and every reverse edge into a
``(dst_type, dst_id) → follower count`` dict. That fold lives on here
only, as the reference: on a crawled seeded world the columnar index
must answer every row, every count, the neighborhood key pool and
summary, every traversal and every shard split exactly as it did.
"""

import json

import pytest

from repro.dfs.jsonlines import JsonLinesWriter, iter_json_dataset
from repro.graph.follows import FollowIndex
from repro.serve.dataset import KIND_NEIGHBORHOOD, ServeDataset
from repro.serve.sharding import shard_of, split_dataset
from repro.util.errors import StorageError

FOLLOW_EDGES = "/crawl/angellist/follow_edges"


def reference_fold(dfs, directory=FOLLOW_EDGES):
    """The dict fold ``ServeDataset.build`` ran before the index."""
    follows_out, follower_counts = {}, {}
    for rec in iter_json_dataset(dfs, directory):
        src = int(rec["src_user"])
        dst = (str(rec["dst_type"]), int(rec["dst_id"]))
        follows_out.setdefault(src, []).append(dst)
        follower_counts[dst] = follower_counts.get(dst, 0) + 1
    for adj in follows_out.values():
        adj.sort()
    return follows_out, follower_counts


def reference_traverse(follows_out, user_parts, key, depth):
    """The BFS ``ServeDataset._traverse`` ran over the dict."""
    depth = max(1, min(int(depth), 3))
    seen_users = {key}
    seen_companies = set()
    frontier = [key]
    units = 1
    for _ in range(depth):
        next_frontier = []
        for uid in frontier:
            for dst_type, dst_id in follows_out.get(uid, ()):
                units += 1
                if dst_type == "user":
                    if dst_id not in seen_users:
                        seen_users.add(dst_id)
                        next_frontier.append(dst_id)
                else:
                    seen_companies.add(dst_id)
        frontier = next_frontier
    value = {
        "user_id": key,
        "known": key in user_parts,
        "depth": depth,
        "users_reached": len(seen_users) - 1,
        "companies_reached": len(seen_companies),
        "user_sample": sorted(seen_users - {key})[:25],
        "company_sample": sorted(seen_companies)[:25],
    }
    return value, units


def reference_doc(follows_out, follower_counts):
    """The shard codec's two follow entries, as it spelled them."""
    return {
        "follows_out": {str(k): [list(e) for e in v]
                        for k, v in follows_out.items()},
        "follower_counts": {f"{t}:{i}": c
                            for (t, i), c in follower_counts.items()},
    }


@pytest.fixture(scope="module")
def dataset(crawled_platform):
    return ServeDataset.build(crawled_platform.dfs)


@pytest.fixture(scope="module")
def reference(crawled_platform):
    return reference_fold(crawled_platform.dfs)


def test_every_row_matches_the_fold(dataset, reference):
    follows_out, _ = reference
    index = dataset.follows_out
    assert list(index) == sorted(follows_out)
    assert all(type(uid) is int for uid in index)
    assert len(index) == len(follows_out)
    assert index.num_edges == sum(map(len, follows_out.values()))
    for uid in set(dataset.user_parts) | set(follows_out):
        row = follows_out.get(uid)
        assert index.get(uid) == row
        assert index.get(uid, ()) == (row if row is not None else ())
        assert index.out_degree(uid) == len(row or ())
        users, companies = index.targets(uid)
        assert list(users) == [i for t, i in row or () if t == "user"]
        assert list(companies) == [i for t, i in row or ()
                                   if t == "startup"]
    absent = max(follows_out) + 1
    assert index.get(absent) is None
    assert index.get(absent, "absent") == "absent"
    assert index.targets(absent) == ((), ())


def test_every_follower_count_matches_the_fold(dataset, reference):
    _, follower_counts = reference
    index = dataset.follows_out
    for (dst_type, dst_id), count in follower_counts.items():
        assert index.followers(dst_type, dst_id) == count
    for dst_type in ("startup", "user"):
        assert index.followers(dst_type, -1) == 0


def test_key_pool_and_summary_match_the_fold(dataset, reference):
    follows_out, _ = reference
    assert dataset.keys_for(KIND_NEIGHBORHOOD) == sorted(follows_out)
    degrees = [len(adj) for adj in follows_out.values()]
    assert dataset.summaries[KIND_NEIGHBORHOOD] == {
        "total_users": len(dataset.user_parts),
        "mean_out_degree": round(sum(degrees) / max(1, len(degrees)), 3)}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_traversal_matches_the_fold(dataset, reference, depth):
    follows_out, _ = reference
    keys = sorted(follows_out)[::max(1, len(follows_out) // 40)]
    for key in keys + [max(follows_out) + 1]:
        value, units = reference_traverse(follows_out, dataset.user_parts,
                                          key, depth)
        answer = dataset.run(KIND_NEIGHBORHOOD, key, dfs=None, depth=depth)
        assert json.dumps(answer.value, sort_keys=True) \
            == json.dumps(value, sort_keys=True)
        assert answer.units == units \
            == dataset.units(KIND_NEIGHBORHOOD, key, depth)


@pytest.mark.parametrize("num_shards", [1, 3, 4])
def test_split_matches_the_fold(dataset, reference, num_shards):
    follows_out, follower_counts = reference
    shards = split_dataset(dataset, num_shards)
    for sid, shard in enumerate(shards):
        rows = {uid: adj for uid, adj in follows_out.items()
                if shard_of(uid, num_shards) == sid}
        counts = {dst: c for dst, c in follower_counts.items()
                  if shard_of(dst[1], num_shards) == sid}
        index = shard.follows_out
        assert list(index) == sorted(rows)
        assert {uid: index.get(uid) for uid in index} == rows
        for (dst_type, dst_id), count in follower_counts.items():
            assert index.followers(dst_type, dst_id) \
                == counts.get((dst_type, dst_id), 0)
        assert index.to_doc() == reference_doc(rows, counts)
        assert index == FollowIndex.from_rows(rows, counts)
    assert sum(s.follows_out.num_edges for s in shards) \
        == dataset.follows_out.num_edges


def test_rows_build_the_same_index_as_the_parts(dataset, reference):
    follows_out, follower_counts = reference
    assert FollowIndex.from_rows(follows_out) == dataset.follows_out
    assert FollowIndex.from_rows(follows_out, follower_counts) \
        == dataset.follows_out
    doc = dataset.follows_out.to_doc()
    assert doc == reference_doc(follows_out, follower_counts)
    assert FollowIndex.from_doc(doc) == dataset.follows_out


def test_empty_index():
    index = FollowIndex()
    assert list(index) == [] and len(index) == 0 and index.num_edges == 0
    assert index.get(1) is None and index.followers("user", 1) == 0
    assert index == FollowIndex.from_rows({})
    assert index.to_doc() == {"follows_out": {}, "follower_counts": {}}


class TestBadFollowType:
    """A follow record must target a ``startup`` or a ``user``, by an id
    in ``[0, 2**31)``."""

    def test_build_names_the_part_and_line(self, small_crawl):
        with JsonLinesWriter(small_crawl, FOLLOW_EDGES,
                             start_part_index=7) as writer:
            writer.write_all([
                {"src_user": 1000, "dst_type": "user", "dst_id": 1001},
                {"src_user": 1000, "dst_type": "startup", "dst_id": 100},
                {"src_user": 1001, "dst_type": "company", "dst_id": 101}])
        with pytest.raises(StorageError) as err:
            ServeDataset.build(small_crawl)
        message = str(err.value)
        assert f"{FOLLOW_EDGES}/part-00007.jsonl line 3" in message
        assert "'company'" in message

    def test_line_counts_blank_lines(self, small_crawl):
        small_crawl.create_text(
            f"{FOLLOW_EDGES}/part-00009.jsonl",
            '{"dst_id":1,"dst_type":"user","src_user":2}\n\n'
            '{"dst_id":1,"dst_type":"User","src_user":2}\n')
        with pytest.raises(StorageError, match=r"part-00009\.jsonl line 3"):
            ServeDataset.build(small_crawl)

    def test_rows_and_docs_are_checked_too(self):
        with pytest.raises(StorageError, match="'company'"):
            FollowIndex.from_rows({1: [("company", 2)]})
        with pytest.raises(StorageError, match="'company'"):
            FollowIndex.from_doc({"follows_out": {},
                                  "follower_counts": {"company:2": 1}})

    # a target id must fit the index's int32 columns: 0 <= dst_id < 2**31
    @pytest.mark.parametrize("dst_id", [-1, 2 ** 31, 2 ** 40])
    def test_bad_id_names_the_part_and_line(self, small_crawl, dst_id):
        with JsonLinesWriter(small_crawl, FOLLOW_EDGES,
                             start_part_index=7) as writer:
            writer.write_all([
                {"src_user": 1000, "dst_type": "user", "dst_id": 1001},
                {"src_user": 1001, "dst_type": "startup",
                 "dst_id": dst_id},
                {"src_user": 1001, "dst_type": "user", "dst_id": 1000}])
        with pytest.raises(StorageError) as err:
            ServeDataset.build(small_crawl)
        message = str(err.value)
        assert f"{FOLLOW_EDGES}/part-00007.jsonl line 2" in message
        assert f"dst_id {dst_id} " in message

    # the follower's id is held in an int32 column too
    @pytest.mark.parametrize("src_user", [-1, 2 ** 31])
    def test_bad_follower_id_names_the_part_and_line(self, small_crawl,
                                                     src_user):
        with JsonLinesWriter(small_crawl, FOLLOW_EDGES,
                             start_part_index=7) as writer:
            writer.write_all([
                {"src_user": 1000, "dst_type": "user", "dst_id": 1001},
                {"src_user": 1001, "dst_type": "startup", "dst_id": 100},
                {"src_user": src_user, "dst_type": "user", "dst_id": 1000}])
        with pytest.raises(StorageError) as err:
            ServeDataset.build(small_crawl)
        message = str(err.value)
        assert f"{FOLLOW_EDGES}/part-00007.jsonl line 3" in message
        assert f"src_user {src_user} " in message

    def test_the_largest_id_fits(self):
        index = FollowIndex.from_rows({1: [("user", 2 ** 31 - 1)]})
        assert index.targets(1) == ([2 ** 31 - 1], [])
        assert index.followers("user", 2 ** 31 - 1) == 1

    @pytest.mark.parametrize("dst_id", [-1, 2 ** 31])
    def test_bad_ids_in_rows_and_docs_are_checked_too(self, dst_id):
        with pytest.raises(StorageError, match=f"dst_id {dst_id} "):
            FollowIndex.from_rows({1: [("startup", dst_id)]})
        with pytest.raises(StorageError, match=f"dst_id {dst_id} "):
            FollowIndex.from_doc({
                "follows_out": {"1": [["user", dst_id]]},
                "follower_counts": {}})
        with pytest.raises(StorageError, match=f"dst_id {dst_id} "):
            FollowIndex.from_doc({
                "follows_out": {},
                "follower_counts": {f"user:{dst_id}": 1}})
