"""Property-based tests (hypothesis) of core data structures and invariants.

Covered invariants (see DESIGN.md):

* lineage hash/equals: structurally equal DAGs are equal and hash-equal;
  serialization round-trips,
* dedup: the expanded-hash folding matches real expansion for arbitrary
  patch shapes,
* kernels: elementwise/aggregate kernels agree with direct NumPy,
* eviction: the cache never exceeds its budget and never corrupts values,
* interpreter: reuse configurations agree with plain execution on random
  elementwise programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import LimaConfig, LimaSession
from repro.data.values import MatrixValue
from repro.lineage.item import LineageItem, literal_item, parse_literal
from repro.lineage.serialize import deserialize, serialize
from repro.reuse.cache import LineageCache
from repro.runtime import kernels as K
from repro.runtime.ops import OPS

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_OPCODES = ["+", "-", "*", "mm", "t", "colSums", "rightIndex"]


@st.composite
def lineage_dags(draw, max_nodes=12):
    """Random lineage DAGs with shared sub-structure."""
    n_leaves = draw(st.integers(1, 3))
    nodes = [LineageItem("input", (), f"X{i}:h") for i in range(n_leaves)]
    n_internal = draw(st.integers(1, max_nodes))
    for _ in range(n_internal):
        opcode = draw(st.sampled_from(_OPCODES))
        arity = 1 if opcode in ("t", "colSums") else 2
        inputs = [nodes[draw(st.integers(0, len(nodes) - 1))]
                  for _ in range(arity)]
        data = draw(st.one_of(st.none(), st.sampled_from(["a", "ri"])))
        nodes.append(LineageItem(opcode, inputs, data))
    return nodes[-1]


def rebuild(item, memo=None):
    """Structurally clone a lineage DAG with fresh item identities."""
    if memo is None:
        memo = {}
    if id(item) in memo:
        return memo[id(item)]
    clone = LineageItem(item.opcode,
                        [rebuild(i, memo) for i in item.inputs],
                        item.data)
    memo[id(item)] = clone
    return clone


small_floats = st.floats(min_value=-100, max_value=100,
                         allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_dim=6):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    values = draw(st.lists(small_floats, min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


# ---------------------------------------------------------------------------
# lineage properties
# ---------------------------------------------------------------------------

class TestLineageProperties:
    @given(lineage_dags())
    @settings(max_examples=60, deadline=None)
    def test_clone_equality_and_hash(self, dag):
        clone = rebuild(dag)
        assert clone == dag
        assert hash(clone) == hash(dag)

    @given(lineage_dags())
    @settings(max_examples=60, deadline=None)
    def test_serialize_roundtrip(self, dag):
        assert deserialize(serialize(dag)) == dag

    @given(lineage_dags(), lineage_dags())
    @settings(max_examples=40, deadline=None)
    def test_equality_is_symmetric(self, a, b):
        assert (a == b) == (b == a)

    @given(st.one_of(st.integers(-10**9, 10**9), small_floats,
                     st.booleans(),
                     st.text(alphabet=st.characters(
                         blacklist_categories=("Cs",),
                         blacklist_characters="\x00"), max_size=20)))
    @settings(max_examples=80, deadline=None)
    def test_literal_roundtrip(self, value):
        item = literal_item(value)
        decoded = parse_literal(item.data)
        if isinstance(value, bool):
            assert decoded is value
        elif isinstance(value, float):
            assert decoded == pytest.approx(value)
        else:
            assert decoded == value

    @given(lineage_dags())
    @settings(max_examples=30, deadline=None)
    def test_height_consistent(self, dag):
        for item in dag.iter_dag():
            if item.inputs:
                assert item.height == 1 + max(i.height for i in item.inputs)
            else:
                assert item.height == 0


class TestDedupProperties:
    @given(st.integers(1, 4), st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_fold_hashes_match_expansion(self, n_inputs, n_ops, data):
        from repro.lineage.dedup import extract_patch
        phs = [LineageItem("PH", (), str(i)) for i in range(n_inputs)]
        nodes = list(phs)
        for _ in range(n_ops):
            op = data.draw(st.sampled_from(["+", "*", "t"]))
            arity = 1 if op == "t" else 2
            inputs = [nodes[data.draw(st.integers(0, len(nodes) - 1))]
                      for _ in range(arity)]
            nodes.append(LineageItem(op, inputs))
        patch, _ = extract_patch({"out": nodes[-1]}, n_inputs)
        actual = [LineageItem("input", (), f"A{i}:h")
                  for i in range(n_inputs)]
        folded = patch.fold_hashes([hash(a) for a in actual])
        expanded = patch.expand(actual)
        assert folded["out"] == hash(expanded["out"])


# ---------------------------------------------------------------------------
# kernel properties
# ---------------------------------------------------------------------------

class TestKernelProperties:
    @given(matrices(), st.sampled_from(["+", "-", "*", "min2", "max2"]))
    @settings(max_examples=60, deadline=None)
    def test_binary_matches_numpy(self, x, op):
        fn = {"+": np.add, "-": np.subtract, "*": np.multiply,
              "min2": np.minimum, "max2": np.maximum}[op]
        out = OPS[op].kernel(MatrixValue(x), MatrixValue(x + 1.0))
        np.testing.assert_allclose(out.data, fn(x, x + 1.0))

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_aggregates_match_numpy(self, x):
        assert np.isclose(OPS["sum"].kernel(MatrixValue(x)).value, x.sum())
        np.testing.assert_allclose(
            OPS["colSums"].kernel(MatrixValue(x)).data,
            x.sum(axis=0, keepdims=True))
        np.testing.assert_allclose(
            OPS["rowSums"].kernel(MatrixValue(x)).data,
            x.sum(axis=1, keepdims=True))

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_transpose_involution(self, x):
        v = MatrixValue(x)
        np.testing.assert_array_equal(
            K.transpose(K.transpose(v)).data, x)

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_cbind_then_slice_recovers(self, x):
        v = MatrixValue(x)
        combined = K.cbind(v, v)
        left = K.right_index(combined, None, (1, x.shape[1]))
        np.testing.assert_array_equal(left.data, x)

    @given(matrices(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_left_then_right_index(self, x, data):
        row = data.draw(st.integers(1, x.shape[0]))
        col = data.draw(st.integers(1, x.shape[1]))
        from repro.data.values import ScalarValue
        updated = K.left_index(MatrixValue(x), ScalarValue(42.0), row, col)
        picked = K.right_index(updated, row, col)
        assert picked.data[0, 0] == 42.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rand_deterministic(self, seed):
        a = K.rand(4, 4, seed=seed)
        b = K.rand(4, 4, seed=seed)
        np.testing.assert_array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# cache properties
# ---------------------------------------------------------------------------

class TestCacheProperties:
    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 8),
                              small_floats.filter(lambda f: f >= 0)),
                    min_size=1, max_size=40),
           st.sampled_from(["lru", "dagheight", "costsize"]))
    @settings(max_examples=40, deadline=None)
    def test_budget_never_exceeded(self, puts, policy):
        budget = 4096
        cfg = LimaConfig.hybrid().with_(memory_budget=budget, spill=False,
                                        eviction_policy=policy)
        cache = LineageCache(cfg)
        for tag, kb, cost in puts:
            key = LineageItem("tsmm", [LineageItem("input", (), str(tag))])
            value = MatrixValue(np.ones((kb * 16, 8)))
            cache.put(key, value, key, cost)
            assert cache.total_size <= budget
            hit = cache.probe(key, count=False)
            if hit is not None:
                assert hit.value.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# interpreter equivalence on random programs
# ---------------------------------------------------------------------------

_EW_TEMPLATES = [
    "V = V + {c};", "V = V * {c};", "V = V - W;", "V = V * W;",
    "V = abs(V);", "V = V / ({c} + 10);", "W = V + W;",
    "V = min(V, W);", "V = t(t(V));",
]

_CTRL_TEMPLATES = [
    "if (sum(V) > {c}) V = V + 1; else W = W - 1;",
    "for (i in 1:{n}) V = V * 0.9 + i * 0.01;",
    "for (i in 1:{n}) {{ if (i %% 2 == 0) W = W + V; }}",
    "k = 0; while (k < {n}) {{ V = V + 0.5; k = k + 1; }}",
    "G = t(V) %*% V; W = W + sum(G);",
    "V = V + colMeans(V);",
    "s = V[1:3, ]; W = W + sum(s);",
]


class TestInterpreterEquivalence:
    @given(st.lists(st.tuples(st.integers(0, len(_EW_TEMPLATES) - 1),
                              st.integers(-5, 5)),
                    min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.slow
    def test_random_program_reuse_equivalence(self, steps):
        script = "\n".join(
            _EW_TEMPLATES[i].format(c=c) for i, c in steps)
        script += "\nout = sum(V) + sum(W);"
        rng = np.random.default_rng(5)
        inputs = {"V": rng.standard_normal((6, 4)),
                  "W": rng.standard_normal((6, 4))}
        base = LimaSession(LimaConfig.base()).run(
            script, inputs=inputs, seed=1).get("out")
        for cfg in (LimaConfig.hybrid(),
                    LimaConfig.hybrid().with_(fusion=True)):
            got = LimaSession(cfg).run(script, inputs=inputs,
                                       seed=1).get("out")
            np.testing.assert_allclose(got, base, rtol=1e-10, atol=1e-10)

    @given(st.lists(st.tuples(st.integers(0, len(_CTRL_TEMPLATES) - 1),
                              st.integers(-3, 5), st.integers(1, 4)),
                    min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    @pytest.mark.slow
    def test_random_control_flow_equivalence(self, steps):
        """Random programs with branches/loops compute the same values
        under every reuse configuration (incl. dedup and CA)."""
        script = "\n".join(
            _CTRL_TEMPLATES[i].format(c=c, n=n) for i, c, n in steps)
        script += "\nout = sum(V) + sum(W);"
        rng = np.random.default_rng(11)
        inputs = {"V": rng.standard_normal((6, 4)),
                  "W": rng.standard_normal((6, 4))}
        base = LimaSession(LimaConfig.base()).run(
            script, inputs=inputs, seed=2).get("out")
        for cfg in (LimaConfig.ltd(), LimaConfig.hybrid(),
                    LimaConfig.ca()):
            got = LimaSession(cfg).run(script, inputs=inputs,
                                       seed=2).get("out")
            np.testing.assert_allclose(got, base, rtol=1e-10, atol=1e-10,
                                       err_msg=script)

    @given(st.lists(st.tuples(st.integers(0, len(_CTRL_TEMPLATES) - 1),
                              st.integers(-3, 5), st.integers(1, 4)),
                    min_size=1, max_size=5))
    @settings(max_examples=15, deadline=None)
    @pytest.mark.slow
    def test_random_program_lineage_recomputes(self, steps):
        """Any traced variable of a random program recomputes exactly
        from its serialized lineage."""
        from repro.lineage.serialize import deserialize, serialize
        script = "\n".join(
            _CTRL_TEMPLATES[i].format(c=c, n=n) for i, c, n in steps)
        script += "\nout = V + W;"
        rng = np.random.default_rng(12)
        inputs = {"V": rng.standard_normal((6, 4)),
                  "W": rng.standard_normal((6, 4))}
        sess = LimaSession(LimaConfig.lt())
        result = sess.run(script, inputs=inputs, seed=2)
        log = serialize(result.lineage("out"))
        recomputed = sess.recompute(log, inputs=inputs)
        np.testing.assert_array_equal(recomputed, result.get("out"))
