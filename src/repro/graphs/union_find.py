"""Disjoint-set forests (union-find).

Appendix C of the paper keeps track of the connected components of each
class's induced subgraph with disjoint-set data structures; this is the
concrete implementation used by the centralized CDS-packing driver and by
several verification helpers.

Supports arbitrary hashable elements, lazy insertion, union by size, and
path compression, giving effectively-constant amortized operations.

The packing hot paths use the integer-specialized
:class:`~repro.fastgraph.union_find.IntUnionFind` instead (flat lists,
no hashing).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional


class UnionFind:
    """Disjoint-set forest over arbitrary hashable elements.

    Elements are added lazily on first use, or eagerly via
    :meth:`add`/:meth:`add_all`. ``find`` uses path compression and
    ``union`` uses union-by-size.
    """

    def __init__(self, elements: Optional[Iterable[Hashable]] = None) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._components = 0
        if elements is not None:
            self.add_all(elements)

    def __len__(self) -> int:
        """Number of elements tracked."""
        return len(self._parent)

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)

    @property
    def n_components(self) -> int:
        """Current number of disjoint sets."""
        return self._components

    def add(self, x: Hashable) -> None:
        """Add ``x`` as a singleton set (no-op if already present)."""
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._components += 1

    def add_all(self, elements: Iterable[Hashable]) -> None:
        """Add every element of ``elements`` as a singleton set."""
        for x in elements:
            self.add(x)

    def find(self, x: Hashable) -> Hashable:
        """Return the representative of ``x``'s set, adding ``x`` if new."""
        if x not in self._parent:
            self.add(x)
            return x
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression: point every node on the path directly at root.
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets containing ``x`` and ``y``.

        Returns ``True`` if a merge happened, ``False`` if they were
        already in the same set.
        """
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
        del self._size[ry]
        self._components -= 1
        return True

    def connected(self, x: Hashable, y: Hashable) -> bool:
        """Whether ``x`` and ``y`` are currently in the same set."""
        return self.find(x) == self.find(y)

    def component_size(self, x: Hashable) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    def components(self) -> List[List[Hashable]]:
        """Materialize all sets as lists (ordered by first insertion)."""
        groups: Dict[Hashable, List[Hashable]] = {}
        for x in self._parent:
            groups.setdefault(self.find(x), []).append(x)
        return list(groups.values())

    def representatives(self) -> List[Hashable]:
        """One representative per set."""
        return [x for x in self._parent if self.find(x) == x]
