"""Tests for JSON-lines datasets on the DFS."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import (JsonLinesWriter, LineTemplate,
                                 encode_record, iter_json_dataset,
                                 list_partitions, read_json_dataset,
                                 write_json_dataset)
from repro.util.errors import StorageError


@pytest.fixture()
def dfs():
    return MiniDfs(num_datanodes=3)


class TestWriter:
    def test_roundtrip(self, dfs):
        records = [{"i": i} for i in range(10)]
        with JsonLinesWriter(dfs, "/ds", records_per_part=4) as writer:
            writer.write_all(records)
        assert read_json_dataset(dfs, "/ds") == records

    def test_partition_count(self, dfs):
        with JsonLinesWriter(dfs, "/ds", records_per_part=4) as writer:
            writer.write_all({"i": i} for i in range(10))
        assert len(list_partitions(dfs, "/ds")) == 3  # 4 + 4 + 2

    def test_records_written_counter(self, dfs):
        with JsonLinesWriter(dfs, "/ds", records_per_part=100) as writer:
            writer.write_all({"i": i} for i in range(7))
        assert writer.records_written == 7

    def test_write_after_close_rejected(self, dfs):
        writer = JsonLinesWriter(dfs, "/ds")
        writer.write({"a": 1})
        writer.close()
        with pytest.raises(StorageError):
            writer.write({"a": 2})

    def test_no_records_no_parts(self, dfs):
        with JsonLinesWriter(dfs, "/ds") as writer:
            pass
        assert list_partitions(dfs, "/ds") == []

    def test_invalid_records_per_part(self, dfs):
        with pytest.raises(StorageError):
            JsonLinesWriter(dfs, "/ds", records_per_part=0)


class TestDatasetHelpers:
    def test_write_json_dataset_partitions(self, dfs):
        count = write_json_dataset(dfs, "/d", [{"x": i} for i in range(9)],
                                   partitions=3)
        assert count == 9
        assert len(list_partitions(dfs, "/d")) == 3

    def test_iter_preserves_order(self, dfs):
        records = [{"x": i} for i in range(25)]
        write_json_dataset(dfs, "/d", records, partitions=4)
        assert list(iter_json_dataset(dfs, "/d")) == records

    def test_unicode_payloads(self, dfs):
        records = [{"name": "Müller & Søn", "emoji": "🚀"}]
        write_json_dataset(dfs, "/d", records, partitions=1)
        assert read_json_dataset(dfs, "/d") == records

    def test_invalid_partitions(self, dfs):
        with pytest.raises(StorageError):
            write_json_dataset(dfs, "/d", [{}], partitions=0)


# ------------------------------------------------------- line templates
_INTS = st.integers(min_value=-2 ** 63, max_value=2 ** 63)
_TEXT = st.text(max_size=6)


@settings(max_examples=200, deadline=None)
@given(constants=st.dictionaries(_TEXT, st.one_of(_TEXT, _INTS, st.none(),
                                                  st.booleans()),
                                 max_size=3),
       ints=st.dictionaries(_TEXT, _INTS, min_size=1, max_size=3))
def test_a_template_line_is_the_encoded_record(constants, ints):
    ints = {k: v for k, v in ints.items() if k not in constants}
    if not ints:
        return
    fields = sorted(ints)
    template = LineTemplate(constants, fields)
    assert template.line(*(ints[k] for k in fields)) \
        == encode_record({**constants, **ints})


@settings(max_examples=30, deadline=None)
@given(pages=st.lists(st.lists(st.integers(0, 2 ** 31 - 1), max_size=7),
                      max_size=8),
       per_part=st.integers(1, 5))
def test_write_lines_flushes_the_parts_write_does(pages, per_part):
    template = LineTemplate({"dst_type": "user"}, ("dst_id", "src_user"))
    by_record, by_line = MiniDfs(num_datanodes=3), MiniDfs(num_datanodes=3)
    with JsonLinesWriter(by_record, "/d", records_per_part=per_part) as w:
        for src, page in enumerate(pages):
            for dst in page:
                w.write({"src_user": src, "dst_type": "user",
                         "dst_id": dst})
    with JsonLinesWriter(by_line, "/d", records_per_part=per_part) as w:
        for src, page in enumerate(pages):
            w.write_lines([template.line(dst, src) for dst in page])
    parts = by_record.glob_parts("/d")
    assert by_line.glob_parts("/d") == parts
    assert [by_line.read(p) for p in parts] == [by_record.read(p)
                                                 for p in parts]


def test_template_fields_must_be_in_key_order():
    with pytest.raises(ValueError):
        LineTemplate({}, ("src_user", "dst_id"))
