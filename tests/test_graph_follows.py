"""``FollowIndex`` in the graph package: Figure 3's degree sum and the
index the platform shares with the serve tier."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.follows import FOLLOW_TYPES, FollowIndex
from repro.serve.dataset import ServeDataset
from repro.util.errors import StorageError

FOLLOW_EDGES = "/crawl/angellist/follow_edges"

#: user → row, with repeated edges, empty rows and rows of users only
_ROWS = st.dictionaries(
    st.integers(0, 40),
    st.lists(st.tuples(st.sampled_from(FOLLOW_TYPES),
                       st.one_of(st.integers(0, 12),
                                 st.just(2 ** 31 - 1))),
             max_size=8),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, uids=st.lists(st.integers(0, 50), max_size=20))
@example(rows={1: [("user", 2), ("user", 3)],
               4: [("startup", 5), ("startup", 5), ("user", 1)]},
         uids=[1, 4, 4, 99])
def test_startup_follows_is_the_brute_force_count(rows, uids):
    expected = sum(len({dst_id for dst_type, dst_id in rows.get(uid, ())
                        if dst_type == "startup"})
                   for uid in set(uids))
    follows = FollowIndex.from_rows(rows).startup_follows(iter(uids))
    assert follows == expected and type(follows) is int


def test_startup_follows_of_an_empty_index():
    assert FollowIndex().startup_follows([1, 2]) == 0
    assert FollowIndex.from_rows({1: [("startup", 2)]}).startup_follows(
        []) == 0


def test_parts_count_every_record_and_index_each_edge_once(small_crawl):
    index = FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)
    parts = small_crawl.glob_parts(FOLLOW_EDGES)
    # 30 records, each of the 12 edges landed 2 or 3 times
    assert index.part_records == {
        path: len(small_crawl.read_text(path).splitlines())
        for path in parts}
    assert sum(index.part_records.values()) == 30
    assert index.num_edges == 12
    assert FollowIndex.from_rows({}).part_records == {}


def test_blank_lines_and_crlf_endings(small_crawl):
    small_crawl.create_text(
        f"{FOLLOW_EDGES}/part-00009.jsonl",
        '{"dst_id":7,"dst_type":"user","src_user":2}\r\n\n'
        '{"dst_id":8,"dst_type":"startup","src_user":2}\n'
        '{"dst_id":9,"dst_type":"user","src_user":2}')
    index = FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)
    assert index.part_records[f"{FOLLOW_EDGES}/part-00009.jsonl"] == 3
    assert index.targets(2) == ([7, 9], [8])


def test_a_bad_record_after_a_carriage_return_names_its_line(small_crawl):
    small_crawl.create_text(
        f"{FOLLOW_EDGES}/part-00009.jsonl",
        '{"dst_id":7,"dst_type":"user","src_user":2}\r\n\n'
        '{"dst_id":8,"dst_type":"page","src_user":2}\n')
    with pytest.raises(StorageError, match=r"part-00009\.jsonl line 3: "
                                           r".*'page'"):
        FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)


def test_a_part_of_many_slices_keeps_its_line_numbers(small_crawl):
    # ~45 bytes a line: the part spans several 16 KiB decode slices, and
    # the blank lines shift every later record's line number
    lines = [f'{{"dst_id":{i},"dst_type":"startup","src_user":{i % 97}}}'
             if i % 250 else "" for i in range(2_000)]
    lines[1_234] = '{"dst_id":1,"dst_type":"page","src_user":3}'
    small_crawl.create_text(f"{FOLLOW_EDGES}/part-00009.jsonl",
                            "\n".join(lines) + "\n")
    with pytest.raises(StorageError, match=r"part-00009\.jsonl line 1235: "):
        FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)
    lines[1_234] = ""
    small_crawl.write_atomic_text(f"{FOLLOW_EDGES}/part-00009.jsonl",
                                  "\n".join(lines) + "\n")
    index = FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)
    assert index.part_records[f"{FOLLOW_EDGES}/part-00009.jsonl"] \
        == 2_000 - 9
    assert index.targets(5)[1] == [i for i in range(2_000)
                                   if i % 97 == 5 and i % 250
                                   and i != 1_234]


def test_the_serve_build_serves_a_given_index(small_crawl):
    built = ServeDataset.build(small_crawl)
    index = FollowIndex.from_parts(small_crawl, FOLLOW_EDGES)
    given_index = ServeDataset.build(small_crawl, follows=index)
    assert given_index.follows_out is index
    # the follow parts' counts land in the same place of the same table
    assert list(given_index.part_records.items()) \
        == list(built.part_records.items())
    # an empty index is an index too
    empty = FollowIndex()
    assert ServeDataset.build(small_crawl, follows=empty).follows_out \
        is empty
