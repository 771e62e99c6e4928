"""Receiver-side decoding state for pairwise-XOR rateless codes.

Source symbols are graph nodes, colored black once their value is known.
An incoming coded symbol is first reduced by XOR-ing out its already
recovered constituents.  If one unknown remains the symbol recovers that
node, and through stored edges the node's entire component; if exactly two
unknowns remain the symbol is stored as an edge between them, labelled with
the residual XOR so values can later propagate without re-reading symbols.
Symbols whose residual spans three or more unknowns are discarded, as are
duplicates and edges that would close a cycle inside one component.

Components over the white nodes are tracked with a union-find (path
compression + union by size), so classification and merging stay near O(1)
for million-symbol runs.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ContractViolation",
    "MalformedSymbol",
    "Case",
    "Classification",
    "CodedSymbol",
    "SourceBlock",
    "DecodeGraph",
    "xor_bytes",
]


class ContractViolation(RuntimeError):
    """An operation was invoked in a state its contract forbids."""


class MalformedSymbol(ValueError):
    """A coded symbol references indices outside the source block, or its
    payload is missing or of the wrong length for a value-tracking graph."""


# From this payload length on, xor_bytes XORs numpy views of the two payloads
# instead of converting them to ints and back.  Per call on 2 vCPUs with
# CPython 3.11 and numpy 2.4, ints against numpy: 1.10 against 1.28 us at
# 64 B, 1.10 against 1.48 us at 192 B, 1.68 against 1.59 us at 256 B, 2.6
# against 1.6 us at 512 B and 4.9 against 1.65 us at 1 KiB.
_NUMPY_XOR_MIN = 256
_frombuffer, _bitwise_xor, _uint8 = np.frombuffer, np.bitwise_xor, np.uint8
_xor_reduce = np.bitwise_xor.reduce

# From this many recovered constituents on, classify XORs them out of a
# symbol in one numpy reduce instead of one xor_bytes call each.  Per
# classify on 2 vCPUs with CPython 3.11 and numpy 2.4, the reduce stops
# losing to the loop at 7-8 constituents at 16 B, 6 at 64 B and 3 at 256 B
# and 1 KiB; at 64 constituents it is 2.5x, 4.0x, 5.7x and 5.6x faster.
_REDUCE_XOR_MIN = 8
# At most this many bytes are joined for one reduce; longer runs are folded
# into the residual pass by pass, so the temporaries stay bounded.
_REDUCE_XOR_BYTES = 1 << 20


def xor_bytes(a: bytes, b: bytes) -> bytes:
    n = len(a)
    if n != len(b):
        raise ValueError(f"payload length mismatch: {n} vs {len(b)}")
    if n >= _NUMPY_XOR_MIN:
        return _bitwise_xor(_frombuffer(a, _uint8), _frombuffer(b, _uint8)).tobytes()
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


@dataclass(frozen=True)
class CodedSymbol:
    """XOR of the source payloads at ``indices`` (strictly increasing).

    ``payload`` is None in counting-only mode, where simulations track graph
    evolution without moving bytes.
    """

    indices: tuple[int, ...]
    payload: bytes | None = None

    def __post_init__(self):
        if len(self.indices) < 1:
            raise ValueError("coded symbol needs at least one index")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing: {self.indices}")

    @classmethod
    def _trusted(cls, indices: tuple[int, ...], payload: bytes | None) -> "CodedSymbol":
        """Build a symbol whose indices the caller guarantees are valid (no check).

        Its one caller, ``Encoder.next_symbol``, draws valid indices.
        """
        sym = object.__new__(cls)
        attrs = sym.__dict__
        attrs["indices"] = indices
        attrs["payload"] = payload
        return sym

    @property
    def degree(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SourceBlock:
    """The k original payloads, all of identical length.

    ``__post_init__`` also converts each payload to an int once, into
    ``_ints`` (outside ``==``, ``hash`` and ``repr``), so that ``encode``
    XORs ints and converts to bytes once per symbol.  A counting-mode block
    (empty payloads) builds no table: ``_ints`` is ``()``.
    """

    k: int
    symbols: tuple[bytes, ...]
    _ints: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2 source symbols, got {self.k}")
        if len(self.symbols) != self.k:
            raise ValueError("symbol count does not match k")
        sizes = {len(s) for s in self.symbols}
        if len(sizes) != 1:
            raise ValueError(f"payloads must share one length, got {sorted(sizes)}")
        ints = tuple(int.from_bytes(s, "big") for s in self.symbols) if self.symbol_size else ()
        object.__setattr__(self, "_ints", ints)

    @property
    def symbol_size(self) -> int:
        return len(self.symbols[0])

    @classmethod
    def random(cls, k: int, symbol_size: int = 32, rng: random.Random | None = None) -> "SourceBlock":
        rng = rng or random.Random(0)
        return cls(k, tuple(rng.randbytes(symbol_size) for _ in range(k)))

    def encode(self, indices: tuple[int, ...]) -> bytes:
        """XOR of the payloads selected by ``indices``."""
        ints = self._ints
        if len(indices) == 1 or not ints:   # without a table every payload is b""
            return self.symbols[indices[0]]
        out = 0
        for i in indices:
            out ^= ints[i]
        return out.to_bytes(self.symbol_size, "big")


class Case(enum.Enum):
    DUPLICATE = "duplicate"
    CASE1 = "case1"
    CASE2 = "case2"
    CYCLE = "cycle"
    TOO_MANY_UNKNOWN = "too-many-unknown"


class Classification(NamedTuple):
    """Outcome of reducing a coded symbol against the current graph."""

    case: Case
    target: int | None = None     # CASE1: the single unknown node
    value: bytes | None = None    # CASE1: its residual payload
    a: int | None = None          # CASE2 / CYCLE endpoints
    b: int | None = None
    xor: bytes | None = None      # CASE2: residual edge label


# The outcomes that carry no data, shared: a NamedTuple cannot be changed.
_DUPLICATE = Classification(Case.DUPLICATE)
_TOO_MANY_UNKNOWN = Classification(Case.TOO_MANY_UNKNOWN)
_CASE1, _CASE2, _CYCLE = Case.CASE1, Case.CASE2, Case.CYCLE
# Builds a Classification from all six fields in order, without the keyword
# constructor's cost (half a CASE1 classify).
_positional = tuple.__new__


class DecodeGraph:
    """Union-find decoding graph over k source nodes.

    Invariants (checked by the test suite, relied on everywhere):
      * black count + sum of white-component sizes == k
      * edges only ever connect two white nodes
      * recovered_count never decreases

    A fresh graph holds about 33 bytes per node and no object of its own per
    node.  ``_parent[node]`` is -1 at a root (``find`` compresses paths to
    it), so a fresh list shares one int.  ``adj[node]`` is the shared empty
    tuple ``()`` while the node has no edge: its first edge makes it a list,
    and peeling the node sets it back to ``()``.

    A value-tracking graph rejects a CASE1 or CASE2 symbol that brings no
    payload, or one of another length than the first payload it stored
    (MalformedSymbol).
    """

    def __init__(self, k: int, track_values: bool = True):
        if k < 2:
            raise ValueError(f"need k >= 2, got {k}")
        self.k = k
        self.track_values = track_values
        self.color = bytearray(k)                 # 0 white, 1 black
        self.values: list[bytes | None] = [None] * k
        self._parent = [-1] * k                   # -1 at a root
        self._size = [1] * k                      # valid at white roots
        self.adj: list[list[tuple[int, bytes | None]] | tuple[()]] = [()] * k
        self._payload_len: int | None = None      # of the first stored payload
        self.recovered_count = 0

    # -- union-find ----------------------------------------------------

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] >= 0:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    # -- queries ---------------------------------------------------------

    def beta(self) -> float:
        """Fraction of recovered source symbols."""
        return self.recovered_count / self.k

    @property
    def complete(self) -> bool:
        return self.recovered_count == self.k

    def component_size(self, node: int) -> int:
        """Size of the component holding the white node ``node``."""
        return self._size[self.find(node)]

    def largest_white_component(self) -> int:
        """Size of the largest white component, 0 when none is left: an O(k) scan."""
        return max(self.component_histogram(), default=0)

    def component_histogram(self) -> dict[int, int]:
        """Map component size -> number of white components of that size.

        Peeling blackens whole components, so each white one has one white root: no ``find``, no writes."""
        nodes = zip(self._parent, self._size, self.color)
        return dict(Counter(size for parent, size, black in nodes if parent < 0 and not black))

    # -- symbol handling ---------------------------------------------------

    def classify(self, sym: CodedSymbol) -> Classification:
        """Reduce a symbol against recovered values; the graph is not modified.

        ``sym`` is any object with strictly increasing ``indices`` and a
        ``payload``: a ``CodedSymbol``, or the framed link's decoded
        ``DataFrame``.

        Only CASE1 and CASE2 carry a residual, so only they XOR out the
        recovered constituents, in index order, in one loop of ``xor_bytes``
        calls.  From ``_REDUCE_XOR_MIN`` of them on, one numpy XOR reduce over
        the payload and their values replaces the loop, at most
        ``_REDUCE_XOR_BYTES`` at a time, and gives the same bytes; an empty
        payload or a value of another length or None stays on the loop,
        which raises its error.  A value-tracking graph raises
        MalformedSymbol, before any XOR or state change, for a CASE1 or CASE2
        symbol that has no payload or whose payload length is not that of
        the first payload the graph stored; only its own values reach the
        loop with another length.
        """
        indices = sym.indices
        k = self.k
        if indices[0] < 0 or indices[-1] >= k:   # indices are strictly increasing
            bad = next(i for i in indices if i < 0 or i >= k)
            raise MalformedSymbol(f"index {bad} out of range for k={k}")
        color = self.color
        unknown = [i for i in indices if not color[i]]
        n = len(unknown)
        if n == 0:
            return _DUPLICATE
        if n > 2:
            return _TOO_MANY_UNKNOWN
        if n == 2 and self.find(unknown[0]) == self.find(unknown[1]):
            return _positional(Classification, (_CYCLE, None, None, unknown[0], unknown[1], None))
        residual = sym.payload
        if self.track_values:
            if residual is None:
                raise MalformedSymbol(f"symbol over unknown nodes {unknown} brings no payload")
            size = self._payload_len
            if size is not None and len(residual) != size:
                raise MalformedSymbol(f"payload length {len(residual)}, not the stored {size}" if n == len(indices)
                                      else f"payload length mismatch: {len(residual)} vs {size}")
            if n != len(indices):
                values = self.values
                size = len(residual)
                known: list = []
                if size and len(indices) - n >= _REDUCE_XOR_MIN:   # below it the list costs more than the loop
                    known = [values[i] for i in indices if color[i]]
                if known and all(len(v) == size for v in known):
                    step = max(1, _REDUCE_XOR_BYTES // size - 1)   # values per pass
                    for start in range(0, len(known), step):
                        part = known[start:start + step]
                        block = _frombuffer(b"".join((residual, *part)), _uint8)
                        residual = _xor_reduce(block.reshape(len(part) + 1, size), axis=0).tobytes()
                else:
                    for i in indices:
                        if color[i]:
                            residual = xor_bytes(residual, values[i])  # type: ignore[arg-type]
        if n == 1:
            return _positional(Classification, (_CASE1, unknown[0], residual, None, None, None))
        return _positional(Classification, (_CASE2, None, None, unknown[0], unknown[1], residual))

    def apply_case1(self, target: int, value: bytes | None) -> list[tuple[int, bytes | None]]:
        """Recover ``target`` and, via stored edges, its whole component.

        Returns every newly recovered (node, value) pair; traversed edges are
        removed so edges never touch a black node.  A counting graph
        (``track_values=False``) peels through the same loop with None values.
        A node with no stored edge (the SOFC pass, OFCNB seeding, most
        completion CASE1s) takes a short path that builds no stack.
        """
        color, adj, values = self.color, self.adj, self.values
        if color[target]:
            raise ContractViolation(f"node {target} is already recovered")
        if not self.track_values:
            value = None
        elif self._payload_len is None and value is not None:
            self._payload_len = len(value)
        color[target] = 1
        if not adj[target]:
            values[target] = value
            self.recovered_count += 1
            return [(target, value)]
        newly: list[tuple[int, bytes | None]] = []
        stack = [(target, value)]
        while stack:
            node, val = stack.pop()
            values[node] = val
            newly.append((node, val))
            for nb, edge in adj[node]:
                if not color[nb]:
                    color[nb] = 1
                    stack.append((nb, xor_bytes(edge, val) if edge is not None and val is not None else None))
            adj[node] = ()
        self.recovered_count += len(newly)
        return newly

    def apply_case2(self, a: int, b: int, xor: bytes | None) -> int:
        """Store an edge between two white nodes in distinct components.

        Returns the size of the merged component.
        """
        if self.color[a] or self.color[b]:
            raise ContractViolation(f"edge endpoint already recovered: ({a}, {b})")
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise ContractViolation(f"nodes {a} and {b} share a component (cycle edge)")
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        if xor is not None and self._payload_len is None and self.track_values:
            self._payload_len = len(xor)
        adj = self.adj
        edges = adj[a]
        if not edges:
            edges = adj[a] = []
        edges.append((b, xor))
        edges = adj[b]
        if not edges:
            edges = adj[b] = []
        edges.append((a, xor))
        return self._size[ra]

    def process(self, sym: CodedSymbol) -> tuple[Classification, list[tuple[int, bytes | None]]]:
        """Classify and apply one symbol; returns (classification, newly recovered)."""
        cls = self.classify(sym)
        case, target, value, a, b, xor = cls
        if case is _CASE1:
            return cls, self.apply_case1(target, value)  # type: ignore[arg-type]
        if case is _CASE2:
            self.apply_case2(a, b, xor)  # type: ignore[arg-type]
        return cls, []
