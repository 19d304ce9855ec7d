"""Lineage items and lineage DAGs (paper Definition 1).

A lineage item is an immutable node of the lineage DAG: an ID, an opcode,
an ordered list of input items, and an optional data string (literal value,
system-generated seed, dedup patch key, ...).  The DAG encodes the exact
creation process of an intermediate, without the control-flow computation.

The hash of an item is a hash over its opcode, data, and the hashes of all
inputs, so hashing a new item over already-hashed inputs is O(#inputs)
(constant for fixed arity), exactly as required for cheap cache probing
(Section 4.1).  Hashes (and DAG heights) are computed *lazily* and
memoized: with interning, identity — not hashing — is the equality
mechanism on the tracing path, so plain tracing (no reuse) never pays for
hash materialization at all; the first cache probe computes and caches
hashes bottom-up, after which per-item hashing is O(#inputs) again.
Equality is structural and implemented non-recursively with memoization,
so large DAGs with shared sub-DAGs are compared without exponential
blowup.

Items are *interned* (hash-consed): a weak-valued table keyed on
``(opcode, data, input identities)`` guarantees that structurally equal
DAGs built from the same leaves are the **same object**.  Equality on the
hot probe path therefore short-circuits to pointer identity, and a cache
probe is a plain dict hit with no structural walk.  The structural walk is
retained only as a fallback for non-interned items (``dedup``/``dout``
carry overridden hashes and resolve through patches).  Interning is safe
with id-based keys because a live interned item holds strong references to
its inputs — their ids cannot be recycled while the entry is alive — and
dead entries are removed by the weak-value callback.

Special opcodes:

* ``L``       — a literal leaf; ``data`` holds ``<repr>·<type-tag>``
* ``SL``      — a seed literal leaf (system-generated non-determinism)
* ``PH``      — a placeholder leaf inside a dedup/fusion lineage patch
* ``dedup``   — one loop/function iteration, referencing a lineage patch
* ``dout``    — one named output of a ``dedup`` item
* ``fcall:*`` — a function-call item used for multi-level reuse
* ``fout``    — one output of an ``fcall`` item
* ``bcall``   — a block-call item used for block-level reuse
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterable, Iterator

_ID_COUNTER = itertools.count(1)


def _next_id() -> int:
    # a bare next() on itertools.count is atomic under the GIL; ids stay
    # unique and monotone without a lock on the tracing hot path
    return next(_ID_COUNTER)


class _InternRef(weakref.ref):
    """Weak entry of the intern table, carrying its own key.

    The ``key`` attribute is assigned after construction so both
    ``__new__`` and ``__init__`` stay the C implementations of
    ``weakref.ref`` (entry creation is on the tracing hot path).
    """

    __slots__ = ("key",)


#: weak-valued hash-consing table: (opcode, data, input ids) -> item.
#: A plain dict of weak refs rather than a WeakValueDictionary — entry
#: creation is on the tracing hot path and the direct form skips the
#: wrapper's per-access bookkeeping.
_INTERN: dict[tuple, _InternRef] = {}


def _intern_expire(wr: _InternRef) -> None:
    # callbacks run synchronously at deallocation (GIL), but guard anyway:
    # only drop the entry if it still holds the dying ref
    if _INTERN.get(wr.key) is wr:
        del _INTERN[wr.key]

#: instrumentation: number of structural-equality walks performed;
#: interned probes must never increment this (asserted by tests)
_STRUCTURAL_EQ_CALLS = 0


def intern_table_size() -> int:
    """Number of live interned items (weak entries self-expire)."""
    return len(_INTERN)


def structural_eq_calls() -> int:
    """Total structural-equality walks since process start."""
    return _STRUCTURAL_EQ_CALLS


class LineageItem:
    """An immutable node in a lineage DAG.

    Construction goes through ``__new__`` so structurally identical
    requests can return the already-interned instance; all attribute
    initialization happens there (``object.__init__`` ignores the extra
    arguments when only ``__new__`` is overridden).
    """

    __slots__ = ("id", "opcode", "inputs", "data", "_hash", "_height",
                 "__weakref__")

    def __new__(cls, opcode: str, inputs: Iterable["LineageItem"] = (),
                data: str | None = None, hash_override: int | None = None):
        inputs = tuple(inputs)
        if hash_override is None:
            # keyed on input *identities*: inputs are themselves interned,
            # so identical ids <=> structurally identical sub-DAGs.
            # Arity-specialized tuple displays avoid the map+concat on the
            # dominant unary/binary cases.
            n = len(inputs)
            if n == 2:
                key = (opcode, data, id(inputs[0]), id(inputs[1]))
            elif n == 1:
                key = (opcode, data, id(inputs[0]))
            elif n == 0:
                key = (opcode, data)
            else:
                key = (opcode, data) + tuple(map(id, inputs))
            wr = _INTERN.get(key)
            if wr is not None:
                self = wr()
                if self is not None:
                    return self
            self = super().__new__(cls)
            _init_item(self, opcode, inputs, data, None)
            wr = _InternRef(self, _intern_expire)
            wr.key = key
            _INTERN[key] = wr
            return self
        self = super().__new__(cls)
        _init_item(self, opcode, inputs, data, hash_override)
        return self

    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        return not self.inputs

    @property
    def is_dedup(self) -> bool:
        return self.opcode == "dedup"

    @property
    def height(self) -> int:
        h = self._height
        if h is None:
            h = _compute_height(self)
        return h

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = _compute_hash(self)
        return h

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LineageItem):
            return NotImplemented
        # shallow check first (no hashing needed): with interned inputs,
        # elementwise identity of the input tuples already proves
        # structural equality
        if (self.opcode == other.opcode and self.data == other.data
                and len(self.inputs) == len(other.inputs)
                and all(a is b for a, b in zip(self.inputs, other.inputs))):
            return True
        if hash(self) != hash(other):
            return False
        return _structural_equals(self, other)

    def __repr__(self) -> str:
        return (f"LineageItem(id={self.id}, op={self.opcode!r}, "
                f"data={self.data!r}, #in={len(self.inputs)})")

    # ------------------------------------------------------------------

    def iter_dag(self) -> Iterator["LineageItem"]:
        """Iterate all reachable items once (non-recursive, memoized)."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            item = stack.pop()
            if id(item) in seen:
                continue
            seen.add(id(item))
            yield item
            stack.extend(item.inputs)

    def num_nodes(self) -> int:
        """Number of distinct items reachable from (and including) self."""
        return sum(1 for _ in self.iter_dag())

    def resolve(self) -> "LineageItem":
        """Expand dedup indirections into a plain lineage DAG.

        ``dedup``/``dout`` items anywhere in the DAG are expanded through
        their lineage patches (Section 3.2, "Operations on Deduplicated
        Graphs"); plain sub-DAGs are shared, not copied.  Iterative with
        memoization, so deep chains of dedup items (one per loop
        iteration) expand in linear time.
        """
        from repro.lineage.dedup import get_patch
        memo: dict[int, LineageItem] = {}
        # per-dedup-item expansion cache so sibling douts of the same
        # iteration share one expansion
        expansions: dict[int, dict[str, LineageItem]] = {}
        stack: list[tuple[LineageItem, bool]] = [(self, False)]
        while stack:
            item, expanded = stack.pop()
            if id(item) in memo:
                continue
            # a dout resolves through its dedup parent's *inputs*; the
            # dedup node itself is dissolved by the patch expansion
            deps = (item.inputs[0].inputs if item.opcode == "dout"
                    else item.inputs)
            if not expanded:
                stack.append((item, True))
                for child in deps:
                    if id(child) not in memo:
                        stack.append((child, False))
                continue
            children = [memo[id(c)] for c in deps]
            if item.opcode == "dout":
                dedup = item.inputs[0]
                outputs = expansions.get(id(dedup))
                if outputs is None:
                    outputs = get_patch(dedup.data).expand(children)
                    expansions[id(dedup)] = outputs
                resolved = outputs[item.data]
            elif item.opcode == "dedup":
                outputs = get_patch(item.data).expand(children)
                roots = [outputs[name] for name in sorted(outputs)]
                resolved = LineageItem("bundle", roots,
                                       ",".join(sorted(outputs)))
            elif any(c is not o for c, o in zip(children, item.inputs)):
                resolved = LineageItem(item.opcode, children, item.data,
                                       hash_override=hash(item))
            else:
                resolved = item
            memo[id(item)] = resolved
        return memo[id(self)]


_OBJ_NEW = object.__new__


def traced_item(opcode: str, inputs: tuple) -> LineageItem:
    """Hot-path constructor for plain traced items (no data, no override).

    Semantically identical to ``LineageItem(opcode, inputs)``; used by the
    interpreter's compiled dispatch to skip ``type.__call__`` overhead on
    the per-instruction tracing path.
    """
    n = len(inputs)
    if n == 2:
        key = (opcode, None, id(inputs[0]), id(inputs[1]))
    elif n == 1:
        key = (opcode, None, id(inputs[0]))
    else:
        key = (opcode, None) + tuple(map(id, inputs))
    wr = _INTERN.get(key)
    if wr is not None:
        item = wr()
        if item is not None:
            return item
    item = _OBJ_NEW(LineageItem)
    item.id = next(_ID_COUNTER)
    item.opcode = opcode
    item.inputs = inputs
    item.data = None
    item._height = None
    item._hash = None
    wr = _InternRef(item, _intern_expire)
    wr.key = key
    _INTERN[key] = wr
    return item


def _init_item(self: LineageItem, opcode: str,
               inputs: tuple[LineageItem, ...], data: str | None,
               hash_override: int | None) -> None:
    self.id = _next_id()
    self.opcode = opcode
    self.inputs = inputs
    self.data = data
    self._height = None
    self._hash = hash_override


def _compute_hash(root: LineageItem) -> int:
    """Materialize content hashes bottom-up (iterative, memoizing).

    ``hash()`` of a tuple never returns ``None``, so ``None`` is a safe
    "not yet computed" sentinel.
    """
    stack = [root]
    while stack:
        item = stack[-1]
        if item._hash is not None:
            stack.pop()
            continue
        pending = [i for i in item.inputs if i._hash is None]
        if pending:
            stack.extend(pending)
            continue
        item._hash = hash(
            (item.opcode, item.data) + tuple(i._hash for i in item.inputs))
        stack.pop()
    return root._hash


def _compute_height(root: LineageItem) -> int:
    """Materialize DAG heights bottom-up (iterative, memoizing)."""
    stack = [root]
    while stack:
        item = stack[-1]
        if item._height is not None:
            stack.pop()
            continue
        pending = [i for i in item.inputs if i._height is None]
        if pending:
            stack.extend(pending)
            continue
        item._height = (1 + max(i._height for i in item.inputs)
                        if item.inputs else 0)
        stack.pop()
    return root._height


def _structural_equals(a: LineageItem, b: LineageItem) -> bool:
    """Iterative structural equality with memoization of compared pairs.

    Dedup items whose hashes match are resolved on demand so normal and
    deduplicated sub-DAGs compare equal.
    """
    global _STRUCTURAL_EQ_CALLS
    _STRUCTURAL_EQ_CALLS += 1
    memo: set[tuple[int, int]] = set()
    stack: list[tuple[LineageItem, LineageItem]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        key = (id(x), id(y)) if id(x) < id(y) else (id(y), id(x))
        if key in memo:
            continue
        memo.add(key)
        if hash(x) != hash(y):
            return False
        # resolve dedup indirection when comparing against a plain item
        if (x.opcode in ("dedup", "dout")) != (y.opcode in ("dedup", "dout")):
            x = x.resolve()
            y = y.resolve()
        if x.opcode != y.opcode or x.data != y.data:
            return False
        if len(x.inputs) != len(y.inputs):
            return False
        stack.extend(zip(x.inputs, y.inputs))
    return True


# ---------------------------------------------------------------------------
# literal leaves
# ---------------------------------------------------------------------------

_TYPE_TAGS = {"float": "f", "int": "i", "bool": "b", "str": "s"}


def literal_item(value, seed: bool = False) -> LineageItem:
    """Create a literal leaf item for a Python scalar or string.

    ``seed=True`` marks the literal as a system-generated seed (``SL``) so
    lineage deduplication can recognize and re-parameterize it (Section 3.2,
    "Handling of Non-Determinism").
    """
    if isinstance(value, bool):
        data = f"{'TRUE' if value else 'FALSE'}·b"
    elif isinstance(value, int):
        data = f"{value}·i"
    elif isinstance(value, float):
        data = f"{value!r}·f"
    elif isinstance(value, str):
        data = f"{value}·s"
    else:
        data = f"{value!r}·?"
    return LineageItem("SL" if seed else "L", (), data)


def parse_literal(data: str):
    """Inverse of :func:`literal_item`: decode a literal leaf's payload."""
    payload, _, tag = data.rpartition("·")
    if tag == "i":
        return int(payload)
    if tag == "f":
        return float(payload)
    if tag == "b":
        return payload == "TRUE"
    return payload
