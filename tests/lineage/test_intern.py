"""Interning (hash-consing) invariants of lineage items.

The hot-path overhaul guarantees that structurally equal lineage DAGs
built from the same leaves are the *same object*, that the intern table
does not leak (weak entries expire with their items), and that cache-hit
probes resolve by identity — never through a structural-equality walk.
"""

import gc

import numpy as np
import pytest

from repro.config import LimaConfig
from repro.data.values import MatrixValue
from repro.lineage import item as item_mod
from repro.lineage.item import (LineageItem, intern_table_size,
                                literal_item, structural_eq_calls,
                                traced_item)
from repro.lineage.serialize import deserialize, serialize
from repro.reuse.cache import LineageCache


def leaf(tag):
    return LineageItem("input", (), tag)


def clone(item):
    """Deep non-interned copy: ``hash_override`` items (the dedup/dout
    clones built by ``resolve()``) are the only ones outside the table."""
    return LineageItem(item.opcode, [clone(i) for i in item.inputs],
                       item.data, hash_override=hash(item))


class TestIdentity:
    def test_equal_structure_is_same_object(self):
        a1 = LineageItem("mm", [leaf("x"), leaf("y")])
        a2 = LineageItem("mm", [leaf("x"), leaf("y")])
        assert a1 is a2

    def test_leaves_are_interned(self):
        assert leaf("same") is leaf("same")
        assert literal_item(7) is literal_item(7)

    def test_distinct_structure_distinct_objects(self):
        assert leaf("x") is not leaf("y")
        x, y = leaf("x"), leaf("y")
        assert LineageItem("mm", [x, y]) is not LineageItem("mm", [y, x])

    def test_deep_dag_identity(self):
        def build():
            cur = leaf("x")
            for _ in range(40):
                cur = LineageItem("+", [cur, cur])
            return cur
        assert build() is build()

    def test_traced_item_matches_constructor(self):
        x, y = leaf("x"), leaf("y")
        assert traced_item("mm", (x, y)) is LineageItem("mm", [x, y])

    def test_seed_and_plain_literals_distinct(self):
        assert literal_item(3, seed=True) is not literal_item(3)

    def test_hash_override_items_not_interned(self):
        # dedup/dout clones carry overridden hashes; interning them under
        # the structural key would corrupt later probes
        x = leaf("x")
        a = LineageItem("t", [x], None, hash_override=1234)
        b = LineageItem("t", [x], None, hash_override=1234)
        assert a is not b
        assert LineageItem("t", [x]) is not a

    def test_non_interned_items_fall_back_to_equality(self):
        original = LineageItem("mm", [leaf("p"), leaf("q")])
        a1, a2 = clone(original), clone(original)
        assert a1 is not a2
        assert a1.inputs[0] is not a2.inputs[0]
        assert a1 == a2
        assert a1 == original
        assert hash(a1) == hash(a2) == hash(original)
        assert a1 != clone(LineageItem("mm", [leaf("q"), leaf("p")]))


class TestNoLeak:
    def test_entries_expire_with_items(self):
        gc.collect()
        before = intern_table_size()
        chain = leaf("leakroot")
        for _ in range(100):
            chain = LineageItem("+", [chain, chain])
        assert intern_table_size() >= before + 100
        del chain
        gc.collect()
        assert intern_table_size() <= before + 1

    def test_live_parent_keeps_inputs_entries(self):
        top = LineageItem("t", [LineageItem("rev", [leaf("kept")])])
        gc.collect()
        # the whole chain is reachable from top, so rebuilding any level
        # must return the identical objects
        assert LineageItem("rev", [leaf("kept")]) is top.inputs[0]


class TestRoundTrips:
    def test_serialize_round_trip_is_identity(self):
        x = leaf("sr-x")
        dag = LineageItem("mm", [LineageItem("t", [x]), x])
        assert deserialize(serialize(dag)) is dag

    def test_serialize_round_trip_scalar_chain(self):
        cur = literal_item(1.5)
        for _ in range(10):
            cur = LineageItem("+", [cur, literal_item(2)])
        assert deserialize(serialize(cur)) is cur


class TestProbesAreIdentityBased:
    def _cache(self):
        cfg = LimaConfig.hybrid().with_(memory_budget=1 << 20)
        return LineageCache(cfg)

    def test_cache_hit_without_structural_walk(self):
        cache = self._cache()
        k = LineageItem("tsmm", [leaf("probe-in")])
        cache.put(k, MatrixValue(np.ones((4, 4))), k, 0.5)
        before = structural_eq_calls()
        for _ in range(50):
            hit = cache.probe(LineageItem("tsmm", [leaf("probe-in")]))
            assert hit is not None
        assert structural_eq_calls() == before

    def test_structural_walk_counter_still_counts(self):
        # the counter itself must work, or the zero assertion above is
        # vacuous: non-interned equal items go through the walk
        original = LineageItem("tsmm", [leaf("sw")])
        a1, a2 = clone(original), clone(original)
        before = structural_eq_calls()
        assert a1 == a2
        assert structural_eq_calls() == before + 1

    def test_interned_probe_equal_by_identity(self):
        k1 = LineageItem("mm", [leaf("idp"), leaf("idq")])
        k2 = LineageItem("mm", [leaf("idp"), leaf("idq")])
        table = {k1: "payload"}
        assert table[k2] == "payload"


class TestLazyMaterialization:
    def test_hash_not_computed_until_needed(self):
        item = LineageItem("mm", [leaf("lz1"), leaf("lz2")])
        assert item._hash is None
        hash(item)
        assert item._hash is not None

    def test_height_lazy_and_correct(self):
        x = leaf("hz")
        b = LineageItem("t", [x])
        c = LineageItem("mm", [b, x])
        assert c._height is None
        assert c.height == 2
        assert b.height == 1
        assert x.height == 0

    def test_deep_chain_hash_no_recursion_error(self):
        cur = leaf("deep")
        for _ in range(5000):
            cur = LineageItem("exp", [cur])
        assert isinstance(hash(cur), int)
        assert cur.height == 5000
