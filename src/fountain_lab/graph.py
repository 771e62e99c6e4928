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
    """A coded symbol references indices outside the source block."""


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"payload length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


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
        """Build a symbol whose indices the caller guarantees are valid (no check)."""
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
    """The k original payloads, all of identical length."""

    k: int
    symbols: tuple[bytes, ...]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need k >= 2 source symbols, got {self.k}")
        if len(self.symbols) != self.k:
            raise ValueError("symbol count does not match k")
        sizes = {len(s) for s in self.symbols}
        if len(sizes) != 1:
            raise ValueError(f"payloads must share one length, got {sorted(sizes)}")

    @property
    def symbol_size(self) -> int:
        return len(self.symbols[0])

    @classmethod
    def random(cls, k: int, symbol_size: int = 32, rng: random.Random | None = None) -> "SourceBlock":
        rng = rng or random.Random(0)
        return cls(k, tuple(rng.randbytes(symbol_size) for _ in range(k)))

    def encode(self, indices: tuple[int, ...]) -> bytes:
        """XOR of the payloads selected by ``indices``."""
        out = self.symbols[indices[0]]
        for i in indices[1:]:
            out = xor_bytes(out, self.symbols[i])
        return out


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


@dataclass
class _Stats:
    received: int = 0
    by_case: Counter = field(default_factory=Counter)


class DecodeGraph:
    """Union-find decoding graph over k source nodes.

    Invariants (checked by the test suite, relied on everywhere):
      * black count + sum of white-component sizes == k
      * edges only ever connect two white nodes
      * recovered_count never decreases
    """

    def __init__(self, k: int, track_values: bool = True):
        if k < 2:
            raise ValueError(f"need k >= 2, got {k}")
        self.k = k
        self.track_values = track_values
        self.color = bytearray(k)                 # 0 white, 1 black
        self.values: list[bytes | None] = [None] * k
        self._parent = list(range(k))
        self._size = [1] * k                      # valid at white roots
        self.adj: list[list[tuple[int, bytes | None]]] = [[] for _ in range(k)]
        self.recovered_count = 0
        self._largest = 1
        self._largest_dirty = False
        self.stats = _Stats()

    # -- union-find ----------------------------------------------------

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    # -- queries ---------------------------------------------------------

    def beta(self) -> float:
        """Fraction of recovered source symbols."""
        return self.recovered_count / self.k

    @property
    def complete(self) -> bool:
        return self.recovered_count == self.k

    def largest_white_component(self) -> int:
        if self._largest_dirty:
            self._largest = max(self.component_histogram(), default=0)
            self._largest_dirty = False
        return self._largest

    def component_histogram(self) -> dict[int, int]:
        """Map component size -> number of white components of that size."""
        roots = {}
        for node in range(self.k):
            if not self.color[node]:
                root = self.find(node)
                roots[root] = self._size[root]
        hist: Counter = Counter(roots.values())
        return dict(hist)

    # -- symbol handling ---------------------------------------------------

    def classify(self, sym: CodedSymbol) -> Classification:
        """Reduce a symbol against recovered values; the graph is not modified.

        Only CASE1 and CASE2 carry a residual, so only they XOR out the
        recovered constituents.
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
            return Classification(Case.DUPLICATE)
        if n > 2:
            return Classification(Case.TOO_MANY_UNKNOWN)
        if n == 2 and self.find(unknown[0]) == self.find(unknown[1]):
            return Classification(Case.CYCLE, a=unknown[0], b=unknown[1])
        residual = sym.payload
        if residual is not None and self.track_values and n < len(indices):
            values = self.values
            for i in indices:
                if color[i]:
                    residual = xor_bytes(residual, values[i])  # type: ignore[arg-type]
        if n == 1:
            return Classification(Case.CASE1, target=unknown[0], value=residual)
        return Classification(Case.CASE2, a=unknown[0], b=unknown[1], xor=residual)

    def apply_case1(self, target: int, value: bytes | None) -> list[tuple[int, bytes | None]]:
        """Recover ``target`` and, via stored edges, its whole component.

        Returns every newly recovered (node, value) pair; traversed edges are
        removed so edges never touch a black node.
        """
        if self.color[target]:
            raise ContractViolation(f"node {target} is already recovered")
        newly: list[tuple[int, bytes | None]] = []
        self.color[target] = 1
        stack = [(target, value)]
        while stack:
            node, val = stack.pop()
            if self.track_values:
                self.values[node] = val
            newly.append((node, val))
            for nb, edge in self.adj[node]:
                if not self.color[nb]:
                    self.color[nb] = 1
                    nv = xor_bytes(edge, val) if (self.track_values and edge is not None and val is not None) else None
                    stack.append((nb, nv))
            self.adj[node].clear()
        self.recovered_count += len(newly)
        if len(newly) >= self._largest:
            self._largest_dirty = True
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
        self.adj[a].append((b, xor))
        self.adj[b].append((a, xor))
        merged = self._size[ra]
        if not self._largest_dirty and merged > self._largest:
            self._largest = merged
        return merged

    def process(self, sym: CodedSymbol) -> tuple[Classification, list[tuple[int, bytes | None]]]:
        """Classify and apply one symbol; returns (classification, newly recovered)."""
        cls = self.classify(sym)
        self.stats.received += 1
        self.stats.by_case[cls.case] += 1
        if cls.case is Case.CASE1:
            return cls, self.apply_case1(cls.target, cls.value)  # type: ignore[arg-type]
        if cls.case is Case.CASE2:
            self.apply_case2(cls.a, cls.b, cls.xor)  # type: ignore[arg-type]
        return cls, []
