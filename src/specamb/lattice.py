"""Redundancy lattices: antichains of source events under set inclusion.

For ``n`` predictors the nodes are the nonempty antichains of nonempty
subsets of ``{1..n}``; no member of a node may contain another.  There are
1, 4, 18, 166 and 7579 such nodes for ``n`` = 1 to 5.  The partial order is

    alpha <= beta  iff  every member of beta has a member of alpha inside it,

so the bottom node is the antichain of all singletons and the top node is
``{{1..n}}``.  Meets exist (the minimal members of the union), which is all
the decomposition machinery needs.

:class:`Lattice` is built in one integer pass.  A source event is its
predictor bitmask ``m`` in ``1..2**n - 1``, and a node is represented by
its closure: the set of every event that contains one of its members,
packed into one integer with bit ``m`` per event.  One recursion over the
events in canonical member order grows each antichain together with its
closure, so the closure is also the mask of events the next member may
not be.  Every order query then reads closures by node position: a node
precedes another exactly when its closure contains the other's.  The
count grows like the Dedekind numbers (``n = 6`` has 7,828,352 nodes), so
no dense lattice is built above :data:`MAX_DENSE_PREDICTORS`.

Moebius inversion on this lattice turns a cumulative node measure into
per-node increments.  The decomposition engine does not call it: its
measures are minima of per-member values, whose values and increments it
reads off a sorted threshold sweep (see :mod:`specamb.decomposition`)
over the integer form :class:`Lattice` carries.  Independent routes stay
here as oracles: :func:`enumerate_nodes`, :func:`node_leq` and
:func:`meet` work on :class:`LatticeNode` sets directly,
:meth:`Lattice.mobius_invert` subtracts the full strict down-set
recursively, and :func:`closed_form_partial` evaluates the direct formula
(minimum over members, then subtract the maximum over lower covers).  The
closed form is only valid for measures that are minima of per-member
values; the recursive route has no such restriction.  Tests and the
``verify`` checks compare them with the engine.
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
    "MAX_DENSE_PREDICTORS",
    "enumerate_nodes",
    "node_leq",
    "meet",
    "closed_form_partial",
    "lattice_for",
    "source_events",
]

DEFAULT_MAX_PREDICTORS = 4

# The largest n a dense lattice is built for, whatever cap is asked for:
# n = 5 has 7579 nodes, n = 6 has 7,828,352 and n = 7 about 2.4e12.
MAX_DENSE_PREDICTORS = 5


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


def _check_size(n: int, max_predictors: int) -> None:
    """Refuse, before any enumeration, a lattice above the cap or the ceiling."""
    if n < 1:
        raise SchemaError(f"need at least one predictor, got {n}")
    if n > MAX_DENSE_PREDICTORS:
        raise SchemaError(
            f"no dense lattice for n={n}: the ceiling is {MAX_DENSE_PREDICTORS} "
            "predictors, since n=6 already has 7,828,352 nodes"
        )
    if n > max_predictors:
        raise SchemaError(
            f"lattice for n={n} exceeds the cap of {max_predictors} predictors; "
            "raise max_predictors explicitly to allow it"
        )


def enumerate_nodes(
    n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS
) -> frozenset[LatticeNode]:
    """All lattice nodes for ``n`` predictors.

    The set-based oracle for :class:`Lattice`, which does not call it.
    The node count grows like the Dedekind numbers, so ``n`` is guarded by
    ``max_predictors`` (default 4, or 166 nodes); pass a larger cap
    explicitly to go beyond that, up to :data:`MAX_DENSE_PREDICTORS`.
    """
    _check_size(n, max_predictors)
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


def _built_node(sources: tuple[SourceEvent, ...]) -> LatticeNode:
    """A node from members already in canonical order and known to be an antichain."""
    node = object.__new__(LatticeNode)
    object.__setattr__(node, "sources", sources)
    return node


class Lattice:
    """The full ordered structure for ``n`` predictors, built from integers.

    Nodes are exposed in a linear extension (bottom first, top last), so
    iterating and accumulating per-node increments is always safe.  Every
    attribute is a tuple by node position ``j``:

    * ``nodes[j]`` is the :class:`LatticeNode` and ``names[j]`` its
      ``str``, rendered once for the table writers;
    * ``member_masks[j]`` lists its members as predictor bitmasks, in
      canonical member order;
    * ``closures[j]`` is its closure: bit ``m`` is set for every source
      event ``m`` that contains one of its members.  ``alpha <= beta``
      exactly when ``alpha``'s closure contains ``beta``'s, so a strictly
      lower node has a strictly larger closure;
    * ``cover_positions[j]`` are the positions of its lower covers, which
      all come before ``j``.  A lower cover's closure adds exactly one
      addable event (one all of whose strict supersets are already in the
      closure), so each node's covers are found without a pairwise scan.

    ``node_at`` maps each closure, so each up-set of sources the threshold
    sweep reaches, to its node's position, and :meth:`position` maps a
    node to its position; the order queries below go through it.

    One recursion over the events in canonical member order (size, then
    indices) builds every antichain with its closure.  A later event is
    never smaller than a chosen member, so it can only be blocked by
    containing one, which is exactly membership in the closure.  The nodes
    are sorted by closure size (descending), then member count, then
    member order, which is a linear extension.
    """

    __slots__ = (
        "n", "nodes", "names", "member_masks", "closures", "node_at", "cover_positions",
        "_position",
    )

    def __init__(self, n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS) -> None:
        _check_size(n, max_predictors)
        object.__setattr__(self, "n", n)
        full = (1 << n) - 1
        events = source_events(n)
        order = sorted(range(1, full + 1), key=lambda m: _source_key(events[m - 1]))
        # sup[s] has bit S set for every superset S of s (both nonempty,
        # encoded as bitmasks over predictor indices).
        sup = [0] + [
            sum(1 << big for big in range(s, full + 1) if s & ~big == 0)
            for s in range(1, full + 1)
        ]
        found: list[tuple[int, int, tuple[int, ...], int]] = []

        def extend(closure: int, chosen: tuple[int, ...], start: int) -> None:
            for k in range(start, full):
                if not (closure >> order[k]) & 1:
                    grown = closure | sup[order[k]]
                    node = (*chosen, k)
                    found.append((-grown.bit_count(), len(node), node, grown))
                    extend(grown, node, k + 1)

        extend(0, (), 0)
        found.sort()
        masks = tuple(tuple(order[k] for k in chosen) for _, _, chosen, _ in found)
        # Each member list is canonical and an antichain by construction, so
        # the nodes skip LatticeNode's own sorting and pairwise checks.
        nodes = tuple(_built_node(tuple(events[m - 1] for m in members)) for members in masks)
        braced = ["{" + str(event) + "}" for event in events]
        closures = tuple(closure for *_, closure in found)
        node_at = {closure: j for j, closure in enumerate(closures)}
        # A node's lower covers all have one closure bit more than it, so
        # they share a closure size and their positions follow member order.
        cover_positions = tuple(
            tuple(sorted(
                node_at[closure | (1 << s)]
                for s in range(1, full + 1)
                if not (closure >> s) & 1 and not (sup[s] ^ (1 << s)) & ~closure
            ))
            for closure in closures
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(
            self, "names", tuple("".join(braced[m - 1] for m in members) for members in masks)
        )
        object.__setattr__(self, "member_masks", masks)
        object.__setattr__(self, "closures", closures)
        object.__setattr__(self, "node_at", MappingProxyType(node_at))
        object.__setattr__(self, "cover_positions", cover_positions)
        object.__setattr__(self, "_position", {node: j for j, node in enumerate(nodes)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Lattice is immutable")

    def position(self, node: LatticeNode) -> int:
        """The position of ``node`` in :attr:`nodes`."""
        j = self._position.get(node)
        if j is None:
            raise SchemaError(f"{node} is not a node of the n={self.n} lattice")
        return j

    def leq(self, alpha: LatticeNode, beta: LatticeNode) -> bool:
        lower, upper = self.closures[self.position(alpha)], self.closures[self.position(beta)]
        return upper & ~lower == 0

    def down_set(self, node: LatticeNode) -> frozenset[LatticeNode]:
        """Every node below or equal to ``node``."""
        closure = self.closures[self.position(node)]
        return frozenset(
            alpha for alpha, mask in zip(self.nodes, self.closures) if closure & ~mask == 0
        )

    def lower_covers(self, node: LatticeNode) -> tuple[LatticeNode, ...]:
        """The immediate predecessors (transitive reduction edges into node)."""
        return tuple(map(self.nodes.__getitem__, self.cover_positions[self.position(node)]))

    def mobius_invert(
        self, cumulative: Mapping[LatticeNode, float]
    ) -> dict[LatticeNode, float]:
        """Per-node increments whose running down-set sums give ``cumulative``.

        Works for any cumulative assignment; inverts by subtracting the
        already-computed increments over the full strict down-set.
        """
        partial: dict[LatticeNode, float] = {}
        done: list[tuple[int, LatticeNode]] = []
        for node, closure in zip(self.nodes, self.closures):
            if node not in cumulative:
                raise SchemaError(f"cumulative value missing for {node}")
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

    def r_min(alpha: LatticeNode) -> float:
        return min(getter(a) for a in alpha.sources)

    covers = lattice.lower_covers(node)
    if not covers:
        return r_min(node)
    return r_min(node) - max(r_min(beta) for beta in covers)


@lru_cache(maxsize=None)
def _cached_lattice(n: int) -> Lattice:
    return Lattice(n, MAX_DENSE_PREDICTORS)


def lattice_for(n: int, max_predictors: int = DEFAULT_MAX_PREDICTORS) -> Lattice:
    """Shared immutable lattice instance for ``n`` predictors.

    The cap only guards the call: every cap that admits ``n`` gets the
    same instance.
    """
    _check_size(n, max_predictors)
    return _cached_lattice(n)
