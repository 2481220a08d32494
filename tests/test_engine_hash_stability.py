"""Regression tests for stable shuffle partitioning.

The old ``_hash_partition`` used builtin ``hash``, which is salted per
interpreter for strings (``PYTHONHASHSEED``) — shuffles were
nondeterministic across runs and broken across a process pool, where
the driver and workers would disagree about bucket placement. These
tests pin the replacement: CRC32 of a canonical, type-tagged encoding.
"""

import json
import os
import subprocess
import sys
import zlib

from repro.engine.rdd import _canonical_bytes, _hash_partition, _stable_hash

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SNIPPET = """
import json
from repro.engine.rdd import _hash_partition
keys = ["alpha", "beta", "community-42", "", "x" * 100, "γ-unicode",
        0, 1, -1, 2 ** 40, 1.5, None, True,
        ("investor", 7), ("a", (2, "b")), b"raw-bytes"]
print(json.dumps([_hash_partition(k, 8) for k in keys]))
"""


def _assignments_in_fresh_interpreter(hash_seed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = (os.path.join(_REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _SNIPPET], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


class TestCrossInterpreterStability:
    def test_assignment_identical_across_two_interpreters(self):
        """Two interpreters with different hash salts must agree —
        this is exactly the driver/process-pool-worker situation."""
        first = _assignments_in_fresh_interpreter(1)
        second = _assignments_in_fresh_interpreter(424242)
        assert first == second

    def test_in_process_matches_fresh_interpreter(self):
        keys = ["alpha", "beta", "community-42", "", "x" * 100,
                "γ-unicode", 0, 1, -1, 2 ** 40, 1.5, None, True,
                ("investor", 7), ("a", (2, "b")), b"raw-bytes"]
        here = [_hash_partition(k, 8) for k in keys]
        assert here == _assignments_in_fresh_interpreter(7)


class TestHashSemantics:
    def test_equal_numeric_keys_share_a_bucket(self):
        # 1 == 1.0 == True: a reduceByKey must merge them
        for parts in (2, 3, 7, 64):
            assert _hash_partition(1, parts) \
                == _hash_partition(1.0, parts) \
                == _hash_partition(True, parts)
            assert _hash_partition(0, parts) \
                == _hash_partition(0.0, parts) \
                == _hash_partition(-0.0, parts) \
                == _hash_partition(False, parts)

    def test_integral_floats_beyond_int64_share_a_bucket(self):
        # pinned bug: the float→int normalization stopped at 2**63, so
        # 2**63 == float(2**63) hashed apart (buckets 4 and 1 of 8)
        for big in (2 ** 63, -(2 ** 63), 10 ** 19, 2 ** 200):
            assert big == float(big)
            assert _canonical_bytes(float(big)) == _canonical_bytes(big)
            assert _hash_partition(float(big), 8) == _hash_partition(big, 8)
        # below the old guard nothing moved
        assert _canonical_bytes(float(2 ** 62)) == b"i%d" % 2 ** 62
        # not integral: still tagged as floats, still apart
        for odd in (float("inf"), float("-inf"), float("nan"), 0.5):
            assert _canonical_bytes(odd) == b"f" + repr(odd).encode("ascii")

    def test_distinct_types_stay_distinct(self):
        # "1" and 1 are *not* equal; tags keep them apart
        assert _canonical_bytes("1") != _canonical_bytes(1)
        assert _canonical_bytes(None) != _canonical_bytes("None")
        assert _canonical_bytes(("a",)) != _canonical_bytes("a")

    def test_tuple_encoding_unambiguous(self):
        assert _canonical_bytes(("ab", "c")) != _canonical_bytes(("a", "bc"))
        assert _canonical_bytes((1, (2, 3))) != _canonical_bytes(((1, 2), 3))

    def test_frozenset_is_order_independent(self):
        assert _stable_hash(frozenset(["a", "b", "c"])) \
            == _stable_hash(frozenset(["c", "a", "b"]))

    def test_golden_values(self):
        # the encoding itself is part of the on-disk/cross-run contract
        assert _stable_hash("alpha") == zlib.crc32(b"salpha")
        assert _stable_hash(17) == zlib.crc32(b"i17")
        assert _stable_hash(None) == zlib.crc32(b"N")

    def test_buckets_reasonably_balanced(self):
        keys = [f"startup-{i}" for i in range(4000)]
        counts = [0] * 8
        for k in keys:
            counts[_hash_partition(k, 8)] += 1
        assert min(counts) > 300  # perfectly even would be 500
