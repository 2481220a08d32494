"""Tests for hedged replica reads on the MiniDfs."""

import pytest

from repro.dfs.filesystem import HedgedRead, MiniDfs
from repro.util.errors import NotFoundError, StorageError

PAYLOAD = bytes(range(256)) * 8  # several 64-byte blocks


@pytest.fixture()
def dfs():
    fs = MiniDfs(num_datanodes=3, block_size=64, replication=2)
    fs.create("/serve/part-00000", PAYLOAD)
    fs.create("/serve/single", b"one-block-of-data")
    return fs


def _primary_and_secondary(fs, path):
    block = fs.stat(path).blocks[0]
    return block.locations[0], block.locations[1]


class TestHedgedRead:
    def test_matches_plain_read(self, dfs):
        hedged = dfs.read_hedged("/serve/part-00000")
        assert hedged.data == dfs.read("/serve/part-00000")
        assert hedged.data == PAYLOAD

    def test_fast_primary_never_hedges(self, dfs):
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(node_id, 0.001)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.hedges_launched == 0
        assert hedged.hedges_won == 0
        assert hedged.elapsed_s == pytest.approx(0.001)

    def test_slow_primary_hedge_wins(self, dfs):
        primary, _ = _primary_and_secondary(dfs, "/serve/single")
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(
                node_id, 0.1 if node_id == primary else 0.001)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.data == b"one-block-of-data"
        assert hedged.hedges_launched == 1
        assert hedged.hedges_won == 1
        # the block paid hedge_after + secondary, not the primary's 100 ms
        assert hedged.elapsed_s == pytest.approx(0.031)
        assert dfs.hedges_launched == 1
        assert dfs.hedges_won == 1

    def test_hedge_launched_but_lost_keeps_primary(self, dfs):
        # every replica slow: the hedge (hedge_after + secondary) costs
        # more than just waiting for the primary, so it loses
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(node_id, 0.05)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.hedges_launched == 1
        assert hedged.hedges_won == 0
        assert hedged.elapsed_s == pytest.approx(0.05)
        assert hedged.data == b"one-block-of-data"

    def test_corrupt_winner_falls_back_to_strict_path(self, dfs):
        primary, _ = _primary_and_secondary(dfs, "/serve/part-00000")
        dfs.corrupt_block("/serve/part-00000", block_index=0,
                          node_id=primary)
        hedged = dfs.read_hedged("/serve/part-00000")
        assert hedged.data == PAYLOAD  # checksum failover still applies

    def test_latency_validation(self, dfs):
        with pytest.raises(StorageError):
            dfs.set_datanode_latency("dn0", -0.1)
        with pytest.raises(NotFoundError):
            dfs.set_datanode_latency("dn99", 0.1)

    def test_missing_file(self, dfs):
        with pytest.raises(NotFoundError):
            dfs.read_hedged("/serve/absent")


class TestWastedReads:
    """Every launched hedge leaves one abandoned loser read behind."""

    def test_no_hedge_no_waste(self, dfs):
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(node_id, 0.001)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.wasted_reads == 0
        assert dfs.hedge_wasted_reads == 0

    def test_winning_hedge_wastes_the_primary(self, dfs):
        primary, _ = _primary_and_secondary(dfs, "/serve/single")
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(
                node_id, 0.1 if node_id == primary else 0.001)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.hedges_launched == 1
        assert hedged.wasted_reads == 1
        assert dfs.hedge_wasted_reads == 1

    def test_losing_hedge_is_wasted_too(self, dfs):
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(node_id, 0.05)
        hedged = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert hedged.hedges_won == 0
        assert hedged.wasted_reads == 1

    def test_counter_accumulates_across_reads(self, dfs):
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(node_id, 0.05)
        first = dfs.read_hedged("/serve/part-00000", hedge_after_s=0.03)
        second = dfs.read_hedged("/serve/single", hedge_after_s=0.03)
        assert dfs.hedge_wasted_reads \
            == first.wasted_reads + second.wasted_reads
        assert dfs.hedge_wasted_reads >= 2


class TestRangedRead:
    """``offset``/``length``: only the covering blocks are touched."""

    PATH = "/serve/part-00000"       # 2048 bytes in 64-byte blocks

    @pytest.mark.parametrize("offset,length", [
        (70, 20),        # inside one block
        (60, 10),        # straddles one block boundary
        (100, 300),      # spans several blocks
        (0, 5),          # at offset 0
        (2040, 8),       # ends at end-of-file
        (1990, None),    # open-ended: runs to end-of-file
        (0, 2048),       # the whole file, spelled as a range
        (128, 64),       # exactly one aligned block
        (64, 0),         # empty range
    ])
    def test_equals_slice_of_plain_read(self, dfs, offset, length):
        hedged = dfs.read_hedged(self.PATH, offset=offset, length=length)
        end = None if length is None else offset + length
        assert hedged.data == dfs.read(self.PATH)[offset:end]

    @pytest.mark.parametrize("offset,length", [
        (-1, 4), (0, -1), (2040, 9), (2049, None), (4096, 1)])
    def test_range_outside_the_file_raises(self, dfs, offset, length):
        with pytest.raises(StorageError, match="outside"):
            dfs.read_hedged(self.PATH, offset=offset, length=length)

    def test_missing_file_is_still_not_found(self, dfs):
        with pytest.raises(NotFoundError):
            dfs.read_hedged("/serve/absent", offset=0, length=1)

    def test_covering_blocks_maps_range_to_blocks(self, dfs):
        all_blocks = dfs.stat(self.PATH).blocks
        assert dfs.covering_blocks(self.PATH) == (all_blocks, 0)
        assert dfs.covering_blocks(self.PATH, 60, 10) \
            == (all_blocks[0:2], 60)
        assert dfs.covering_blocks(self.PATH, 130, 5) \
            == (all_blocks[2:3], 2)
        assert dfs.covering_blocks(self.PATH, 64, 0) == ([], 0)

    def test_corrupt_block_inside_the_range_is_repaired(self, dfs):
        node_id = dfs.corrupt_block(self.PATH, block_index=1)
        hedged = dfs.read_hedged(self.PATH, offset=70, length=20)
        assert hedged.data == PAYLOAD[70:90]
        assert dfs.checksum_failures == 1
        assert dfs.blocks_repaired == 1
        block = dfs.stat(self.PATH).blocks[1]
        assert dfs.datanodes[node_id].get(block.block_id) \
            == PAYLOAD[64:128]

    def test_corrupt_block_outside_the_range_is_not_touched(self, dfs):
        node_id = dfs.corrupt_block(self.PATH, block_index=5)
        hedged = dfs.read_hedged(self.PATH, offset=70, length=20)
        assert hedged.data == PAYLOAD[70:90]
        assert dfs.checksum_failures == 0
        assert dfs.blocks_repaired == 0
        block = dfs.stat(self.PATH).blocks[5]
        assert dfs.datanodes[node_id].get(block.block_id) \
            != PAYLOAD[320:384]         # still mangled: nobody read it

    def test_slow_node_charges_only_covering_blocks(self, dfs):
        # one slow datanode (the primary of a block inside the range),
        # every other fast: a block whose primary is the slow node is
        # hedged to its sibling
        blocks = dfs.stat(self.PATH).blocks
        slow = blocks[3].locations[0]
        for node_id in dfs.datanodes:
            dfs.set_datanode_latency(
                node_id, 0.1 if node_id == slow else 0.001)

        def expected(covered):
            hedges = sum(1 for b in covered if b.locations[0] == slow)
            return hedges, hedges * 0.031 + (len(covered) - hedges) * 0.001

        # a range over blocks 2..4, and the whole file for contrast
        ranged = dfs.read_hedged(self.PATH, hedge_after_s=0.03,
                                 offset=130, length=150)
        hedges, elapsed = expected(blocks[2:5])
        assert ranged.hedges_launched == ranged.hedges_won == hedges >= 1
        assert ranged.wasted_reads == hedges
        assert ranged.elapsed_s == pytest.approx(elapsed)
        assert dfs.hedges_launched == hedges

        whole = dfs.read_hedged(self.PATH, hedge_after_s=0.03)
        all_hedges, all_elapsed = expected(blocks)
        assert whole.hedges_launched == all_hedges > hedges
        assert whole.elapsed_s == pytest.approx(all_elapsed)
        assert ranged.elapsed_s < whole.elapsed_s

    def test_no_range_call_is_unchanged(self, dfs):
        """Byte-for-byte the pre-range result: all 32 blocks fetched,
        every primary's latency charged, the payload returned whole."""
        for index, node_id in enumerate(sorted(dfs.datanodes)):
            dfs.set_datanode_latency(node_id, 0.01 * (index + 1))
        blocks = dfs.stat(self.PATH).blocks
        assert len(blocks) == 32
        want = HedgedRead(
            data=PAYLOAD,
            elapsed_s=sum(dfs.datanodes[b.locations[0]].latency_s
                          for b in blocks),
            hedges_launched=0, hedges_won=0, wasted_reads=0)
        assert dfs.read_hedged(self.PATH, hedge_after_s=0.03) == want
        assert dfs.read_hedged(self.PATH, 0.03) == want     # positional

    def test_empty_file_still_reads_its_one_empty_block(self, dfs):
        dfs.create("/serve/empty", b"")
        dfs.set_datanode_latency(
            dfs.stat("/serve/empty").blocks[0].locations[0], 0.004)
        hedged = dfs.read_hedged("/serve/empty")
        assert hedged.data == b""
        assert hedged.elapsed_s == pytest.approx(0.004)
