"""The one record codec: ``encode_record`` / ``decode_line`` / ``decode_lines``.

The contract is equivalence, not similarity: the fast paths must be
indistinguishable from ``json.dumps(..., separators=(",", ":"),
sort_keys=True)`` and ``json.loads`` — same values, same bytes, and for
bad input the same exception type and message.
"""

import json
import sys
import threading

import pytest

from repro.dfs.jsonlines import decode_line, decode_lines, encode_record

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


def reference_dumps(record):
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


def outcome(decode, text):
    """What a decoder did with ``text``, in a form ``==`` can compare:
    ``repr`` tells ``1`` from ``1.0`` and ``nan`` from ``nan``-unequal."""
    try:
        return "value", repr(decode(text))
    except ValueError as exc:  # JSONDecodeError and the int-digits limit
        return type(exc), str(exc), getattr(exc, "pos", None)


def assert_same_as_json_loads(text):
    assert outcome(decode_line, text) == outcome(json.loads, text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)

#: every way the repo (or a foreign writer) might have spelled a value
json_spellings = st.builds(
    lambda value, ascii_only, spaced: json.dumps(
        value, ensure_ascii=ascii_only,
        separators=(", ", ": ") if spaced else (",", ":")),
    json_values, st.booleans(), st.booleans())

whitespace = st.text(alphabet=" \t\r\n", max_size=3)


class TestDecodeLine:
    @given(json_spellings)
    def test_valid_json_decodes_like_json_loads(self, text):
        assert_same_as_json_loads(text)
        assert outcome(decode_line, text)[0] == "value"

    @given(whitespace, json_spellings, whitespace)
    def test_padding_falls_back_to_the_same_value(self, lead, text, trail):
        assert_same_as_json_loads(lead + text + trail)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "é"]),
                              json_values), max_size=6))
    def test_duplicate_keys_last_one_wins_as_in_json_loads(self, pairs):
        text = "{" + ",".join(f"{json.dumps(key)}:{json.dumps(value)}"
                              for key, value in pairs) + "}"
        assert_same_as_json_loads(text)

    @pytest.mark.parametrize("text", [
        "NaN", "Infinity", "-Infinity", "[NaN,-Infinity]",
        '{"x":NaN,"x":Infinity}', "-0.0", "1E400", "1" * 40])
    def test_constants_and_number_edges(self, text):
        assert_same_as_json_loads(text)

    @given(st.text(max_size=20))
    def test_garbage_raises_what_json_loads_raises(self, text):
        assert_same_as_json_loads(text)

    @given(json_spellings, st.text(min_size=1, max_size=5))
    def test_trailing_data(self, text, extra):
        assert_same_as_json_loads(text + extra)

    @given(json_spellings, st.integers(min_value=0, max_value=30))
    def test_truncated_lines(self, text, keep):
        assert_same_as_json_loads(text[:keep])

    @pytest.mark.parametrize("text", [
        "", " ", "\n", "\ufeff{}", '{"a":}', '{"a":1}{"a":2}', '{"a":1},',
        "[1,2", '"open', "nul", "{'a':1}", "1 2", "9" * 5000])
    def test_bad_lines_same_type_and_message(self, text):
        mine, theirs = outcome(decode_line, text), outcome(json.loads, text)
        assert mine == theirs
        assert mine[0] != "value"


records = st.dictionaries(st.text(max_size=8), json_values, max_size=6)


class TestEncodeRecord:
    @given(records)
    def test_byte_identical_to_json_dumps(self, record):
        assert encode_record(record) == reference_dumps(record)

    @pytest.mark.parametrize("record", [
        {"name": "Café ☃ n°1", "z": 1, "a": [1.5, None, True]},
        {"ctl": "\x00\x1c\x1d\x1e\x7f\x85\u2028\u2029\n\r\t\"\\"},
        {"emoji": "\U0001f680", "nested": {"b": 1, "a": {"d": 1, "c": 2}}},
        {"nan": float("nan"), "inf": float("-inf")},
        {}])
    def test_non_ascii_and_control_characters(self, record):
        line = encode_record(record)
        assert line == reference_dumps(record)
        # what keeps ``str.splitlines()`` and byte offsets in step
        assert line.isascii()
        assert line.splitlines() == [line]
        assert len(line.encode("utf-8")) == len(line)

    @given(records)
    def test_round_trip(self, record):
        assert repr(decode_line(encode_record(record))) == \
            repr(json.loads(reference_dumps(record)))

    def test_errors_are_json_dumps_errors(self):
        for bad in ({"k": object()}, {1: "a", "b": 2}):
            with pytest.raises(TypeError) as mine:
                encode_record(bad)
            with pytest.raises(TypeError) as theirs:
                reference_dumps(bad)
            assert str(mine.value) == str(theirs.value)

    @given(json_values)
    def test_any_json_value_not_only_dicts(self, value):
        assert encode_record(value) == reference_dumps(value)

    def test_circular_input_is_a_value_error_and_leaves_no_trace(self):
        """The encoder is shared, and so is the marker dict it finds
        cycles with: a failed encode must not leave the ids of the
        containers it was inside marked as "being encoded"."""
        looped_dict = {"a": [1, 2]}
        looped_dict["self"] = looped_dict
        looped_list = [{"deep": []}]
        looped_list[0]["deep"].append(looped_list)
        for bad in (looped_dict, looped_list):
            for _again in range(2):
                with pytest.raises(ValueError) as mine:
                    encode_record(bad)
                with pytest.raises(ValueError) as theirs:
                    reference_dumps(bad)
                assert str(mine.value) == str(theirs.value)
        # the very objects that failed encode fine once the loop is cut
        del looped_dict["self"]
        looped_list[0]["deep"].clear()
        assert encode_record(looped_dict) == '{"a":[1,2]}'
        assert encode_record(looped_list) == '[{"deep":[]}]'
        # ... as does one that failed for another reason part-way in
        half = {"a": {"b": [object()]}}
        with pytest.raises(TypeError):
            encode_record(half)
        half["a"]["b"][0] = None
        assert encode_record(half) == '{"a":{"b":[null]}}'

    def test_same_bytes_without_the_c_accelerator(self, monkeypatch):
        from repro.dfs import jsonlines
        monkeypatch.setattr(jsonlines, "_c_encode", None)
        record = {"name": "Café ☃", "z": [1.5, None, {"b": 1, "a": 2}]}
        assert encode_record(record) == reference_dumps(record)

    def test_four_threads_share_one_encoder(self):
        records = [{"id": i, "name": f"Zoë-{i % 7}", "tags": ["a", i],
                    "nested": {"score": i / 3, "ok": i % 2 == 0}}
                   for i in range(3000)]
        serial = [reference_dumps(record) for record in records]
        looped = {}
        looped["self"] = looped
        results = [None] * 4

        def work(slot):
            out = []
            for _ in range(5):
                if slot == 0:       # one thread keeps failing mid-encode
                    with pytest.raises(ValueError):
                        encode_record(looped)
                out.append([encode_record(record) for record in records])
            results[slot] = out
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        for per_thread in results:
            assert per_thread == [serial] * 5


class TestDecodeLines:
    @given(st.lists(json_spellings | whitespace, max_size=8))
    def test_is_json_loads_per_non_empty_line(self, lines):
        text = "\n".join(lines)
        expected = outcome(
            lambda t: [json.loads(line) for line in t.splitlines() if line],
            text)
        assert outcome(decode_lines, text) == expected

    def test_four_threads_share_one_scanner(self):
        """The scanner is module-level, like ``json``'s default decoder:
        concurrent callers must each get the serial answer."""
        lines = [encode_record({"id": i, "name": f"n-{i % 7}",
                                "tags": ["a", "b", i], "score": i / 3})
                 for i in range(3000)]
        lines[10] = "  " + lines[10] + " "     # fallback path in the mix
        text = "\n".join(lines) + "\n"
        serial = decode_lines(text)
        assert serial == [json.loads(line) for line in lines]
        results = [None] * 4

        def work(slot):
            results[slot] = [decode_lines(text) for _ in range(5)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        for per_thread in results:
            assert per_thread == [serial] * 5
