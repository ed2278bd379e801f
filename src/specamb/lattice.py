"""Redundancy lattices: antichains of source events under set inclusion.

For ``n`` predictors the nodes are the nonempty antichains of nonempty
subsets of ``{1..n}``; no member of a node may contain another.  There are
1, 4, 18 and 166 such nodes for ``n`` = 1 to 4.  The partial order is

    alpha <= beta  iff  every member of beta has a member of alpha inside it,

so the bottom node is the antichain of all singletons and the top node is
``{{1..n}}``.  Meets exist (the minimal members of the union), which is all
the decomposition machinery needs.

Moebius inversion on this lattice turns a cumulative node measure into
per-node increments.  The decomposition engine does not call it: its
measures are minima of per-member values, whose values and increments it
reads off a sorted threshold sweep (see :mod:`specamb.decomposition`)
that runs on the integer form :class:`Lattice` carries.  Two independent
routes stay here as oracles for that sweep:
:meth:`Lattice.mobius_invert` subtracts the full strict down-set
recursively, while :func:`closed_form_partial` evaluates the direct
formula (minimum over members, then subtract the maximum over lower
covers).  The closed form is only valid for measures that are minima of
per-member values; the recursive route has no such restriction.  Tests
and the ``verify`` checks compare them with the engine.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Union

from specamb.distribution import SchemaError, SourceEvent

__all__ = [
    "LatticeNode",
    "Lattice",
    "DEFAULT_MAX_PREDICTORS",
    "enumerate_nodes",
    "node_leq",
    "meet",
    "closed_form_partial",
    "lattice_for",
    "source_events",
]

DEFAULT_MAX_PREDICTORS = 4


@dataclass(frozen=True)
class LatticeNode:
    """A nonempty antichain of source events, kept in canonical order."""

    sources: tuple[SourceEvent, ...]

    def __post_init__(self) -> None:
        if not self.sources:
            raise SchemaError("a lattice node needs at least one source event")
        canonical = tuple(sorted(set(self.sources), key=_source_key))
        object.__setattr__(self, "sources", canonical)
        for a, b in combinations(canonical, 2):
            if a.issubset(b) or b.issubset(a):
                raise SchemaError(
                    f"{a} and {b} are nested; node members must form an antichain"
                )

    @classmethod
    def of(cls, *sources: Union[SourceEvent, Iterable[int]]) -> "LatticeNode":
        """Build a node from source events or bare index collections.

        >>> str(LatticeNode.of((1, 2), (1, 3)))
        '{12}{13}'
        """
        events = tuple(
            s if isinstance(s, SourceEvent) else SourceEvent.of(*s) for s in sources
        )
        return cls(events)

    def __iter__(self):
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def __str__(self) -> str:
        return "".join("{" + str(s) + "}" for s in self.sources)


def _source_key(source: SourceEvent) -> tuple[int, tuple[int, ...]]:
    return (len(source.indices), source.indices)


def _predictor_mask(source: SourceEvent) -> int:
    return sum(1 << (index - 1) for index in source.indices)


@lru_cache(maxsize=None)
def source_events(n: int) -> tuple[SourceEvent, ...]:
    """Every nonempty subset of ``{1..n}``, in predictor-bitmask order.

    Predictor ``i`` is bit ``i - 1``, so the event with bitmask ``m`` sits
    at position ``m - 1``.

    >>> [str(a) for a in source_events(2)]
    ['1', '2', '12']
    """
    return tuple(
        SourceEvent(tuple(i + 1 for i in range(n) if mask >> i & 1))
        for mask in range(1, 1 << n)
    )


def node_leq(alpha: LatticeNode, beta: LatticeNode) -> bool:
    """True when alpha precedes beta: each member of beta shadows one of alpha."""
    return all(any(a.issubset(b) for a in alpha.sources) for b in beta.sources)


def meet(alpha: LatticeNode, beta: LatticeNode) -> LatticeNode:
    """Greatest lower bound: the inclusion-minimal members of the union."""
    pool = set(alpha.sources) | set(beta.sources)
    minimal = [
        s for s in pool if not any(o != s and o.issubset(s) for o in pool)
    ]
    return LatticeNode(tuple(minimal))


def enumerate_nodes(
    n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS
) -> frozenset[LatticeNode]:
    """All lattice nodes for ``n`` predictors.

    The node count grows like the Dedekind numbers, so ``n`` is guarded by
    ``max_predictors`` (default 4, or 166 nodes); pass a larger cap
    explicitly to go beyond that.
    """
    if n < 1:
        raise SchemaError(f"need at least one predictor, got {n}")
    if n > max_predictors:
        raise SchemaError(
            f"lattice for n={n} exceeds the cap of {max_predictors} predictors; "
            "raise max_predictors explicitly to allow it"
        )
    subsets = source_events(n)
    nodes: list[LatticeNode] = []

    def extend(chosen: list[SourceEvent], start: int) -> None:
        if chosen:
            nodes.append(LatticeNode(tuple(chosen)))
        for k in range(start, len(subsets)):
            candidate = subsets[k]
            if any(candidate.issubset(c) or c.issubset(candidate) for c in chosen):
                continue
            chosen.append(candidate)
            extend(chosen, k + 1)
            chosen.pop()

    extend([], 0)
    return frozenset(nodes)


class Lattice:
    """The full ordered structure for ``n`` predictors.

    Nodes are exposed in a linear extension (bottom first, top last), so
    iterating and accumulating per-node increments is always safe.

    Internally every node carries the upward closure of its members in
    the poset of nonempty subsets of ``{1..n}``, packed into one integer
    with a bit per subset.  A node precedes another exactly when its
    closure contains the other's, so order tests are two integer
    operations, and the lower covers of a node are the nodes whose
    closure adds exactly one addable subset (one all of whose strict
    supersets are already closed over).  That keeps construction near
    linear in the node count instead of quadratic.  For the threshold
    sweep, bit ``m`` is the source event with predictor bitmask ``m``;
    ``member_masks[j]`` lists node ``j``'s members as predictor bitmasks
    and ``node_at`` maps each closure (so each up-set of sources) to its
    node's position.  ``names[j]`` is ``str(nodes[j])``, rendered once
    for the table writers that label rows with it.  For the checks that
    walk the whole lattice, ``closures[j]`` is node ``j``'s closure and
    ``cover_positions[j]`` the positions of its lower covers, which all
    come before ``j``.
    """

    __slots__ = (
        "n", "nodes", "names", "member_masks", "node_at", "closures", "cover_positions",
        "_umask", "_covers", "_down_cache",
    )

    def __init__(self, n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS) -> None:
        object.__setattr__(self, "n", n)
        unordered = enumerate_nodes(n, max_predictors)
        full = (1 << n) - 1
        # sup[s] has bit S set for every superset S of s (both nonempty,
        # encoded as bitmasks over predictor indices).
        sup = {}
        for s in range(1, full + 1):
            mask = 0
            for big in range(1, full + 1):
                if s & ~big == 0:
                    mask |= 1 << big
            sup[s] = mask
        umask: dict[LatticeNode, int] = {}
        for node in unordered:
            closure = 0
            for member in node.sources:
                closure |= sup[_predictor_mask(member)]
            umask[node] = closure
        # Strictly lower nodes have strictly larger closures, so closure
        # size (descending) is a linear extension key.
        ordered = tuple(
            sorted(unordered, key=lambda v: (-umask[v].bit_count(), _node_key(v)))
        )
        object.__setattr__(self, "nodes", ordered)
        object.__setattr__(self, "names", tuple(map(str, ordered)))
        object.__setattr__(self, "_umask", umask)
        masks = tuple(tuple(_predictor_mask(a) for a in node.sources) for node in ordered)
        object.__setattr__(self, "member_masks", masks)
        closures = tuple(umask[node] for node in ordered)
        object.__setattr__(self, "closures", closures)
        node_at = {closure: j for j, closure in enumerate(closures)}
        object.__setattr__(self, "node_at", MappingProxyType(node_at))
        # A node's lower covers all have one closure bit more than it, so
        # they share a closure size and their positions follow _node_key.
        cover_positions = tuple(
            tuple(sorted(
                node_at[closure | (1 << s)]
                for s in range(1, full + 1)
                if not (closure >> s) & 1 and not (sup[s] ^ (1 << s)) & ~closure
            ))
            for closure in closures
        )
        object.__setattr__(self, "cover_positions", cover_positions)
        covers = {
            node: tuple(ordered[k] for k in below)
            for node, below in zip(ordered, cover_positions)
        }
        object.__setattr__(self, "_covers", covers)
        object.__setattr__(self, "_down_cache", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Lattice is immutable")

    def _check(self, node: LatticeNode) -> None:
        if node not in self._umask:
            raise SchemaError(f"{node} is not a node of the n={self.n} lattice")

    def leq(self, alpha: LatticeNode, beta: LatticeNode) -> bool:
        self._check(alpha)
        self._check(beta)
        return self._umask[beta] & ~self._umask[alpha] == 0

    def down_set(self, node: LatticeNode) -> frozenset[LatticeNode]:
        """Every node below or equal to ``node``."""
        self._check(node)
        cached = self._down_cache.get(node)
        if cached is None:
            closure = self._umask[node]
            cached = frozenset(
                a for a in self.nodes if closure & ~self._umask[a] == 0
            )
            self._down_cache[node] = cached
        return cached

    def lower_covers(self, node: LatticeNode) -> tuple[LatticeNode, ...]:
        """The immediate predecessors (transitive reduction edges into node)."""
        self._check(node)
        return self._covers[node]

    def mobius_invert(
        self, cumulative: Mapping[LatticeNode, float]
    ) -> dict[LatticeNode, float]:
        """Per-node increments whose running down-set sums give ``cumulative``.

        Works for any cumulative assignment; inverts by subtracting the
        already-computed increments over the full strict down-set.
        """
        partial: dict[LatticeNode, float] = {}
        done: list[tuple[int, LatticeNode]] = []
        for node in self.nodes:
            if node not in cumulative:
                raise SchemaError(f"cumulative value missing for {node}")
            closure = self._umask[node]
            partial[node] = cumulative[node] - math.fsum(
                partial[v] for mask, v in done if closure & ~mask == 0
            )
            done.append((closure, node))
        return partial


def closed_form_partial(
    lattice: Lattice,
    node: LatticeNode,
    member_value: Union[Mapping[SourceEvent, float], Callable[[SourceEvent], float]],
) -> float:
    """Direct per-node increment for minimum-form cumulative measures.

    With ``r(alpha) = min over members of member_value``, the increment at
    ``alpha`` is ``r(alpha)`` minus the maximum of ``r`` over the lower
    covers of ``alpha`` (the bottom node keeps its full value).  This is an
    independent route to :meth:`Lattice.mobius_invert` and must agree with
    it whenever the cumulative measure really is a minimum of per-member
    values that is monotone on the lattice.
    """
    getter = member_value if callable(member_value) else member_value.__getitem__
    lattice._check(node)

    def r_min(alpha: LatticeNode) -> float:
        return min(getter(a) for a in alpha.sources)

    covers = lattice.lower_covers(node)
    if not covers:
        return r_min(node)
    return r_min(node) - max(r_min(beta) for beta in covers)


@lru_cache(maxsize=None)
def _cached_lattice(n: int, max_predictors: int) -> Lattice:
    return Lattice(n, max_predictors)


def lattice_for(n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS) -> Lattice:
    """Shared immutable lattice instance for ``n`` predictors."""
    return _cached_lattice(n, max_predictors)


def _node_key(node: LatticeNode) -> tuple:
    return (len(node.sources), tuple(_source_key(s) for s in node.sources))
