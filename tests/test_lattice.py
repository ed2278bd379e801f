"""Antichain lattice structure: enumeration, order, meet, inversion."""

import math
import random
from itertools import combinations

import pytest

import specamb.lattice
from specamb.distribution import SchemaError, SourceEvent
from specamb.lattice import (
    MAX_DENSE_PREDICTORS,
    Lattice,
    LatticeNode,
    closed_form_partial,
    enumerate_nodes,
    lattice_for,
    meet,
    node_leq,
)


def brute_force_nodes(n: int) -> set[LatticeNode]:
    """Oracle: filter every set of subsets down to the nonempty antichains.

    Walks the double power set directly, so it is independent of the
    production enumerator's pruning order.
    """
    events = [
        frozenset(combo)
        for size in range(1, n + 1)
        for combo in combinations(range(1, n + 1), size)
    ]
    nodes: set[LatticeNode] = set()
    for mask in range(1, 2 ** len(events)):
        chosen = [events[i] for i in range(len(events)) if mask >> i & 1]
        if any(
            a != b and a <= b for a in chosen for b in chosen
        ):
            continue
        nodes.add(LatticeNode.of(*(tuple(sorted(e)) for e in chosen)))
    return nodes


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 18)])
    def test_counts_match_oracle(self, n, count):
        oracle = brute_force_nodes(n)
        produced = enumerate_nodes(n)
        assert produced == oracle
        assert len(produced) == count

    def test_n4_count_matches_oracle(self):
        oracle = brute_force_nodes(4)
        produced = enumerate_nodes(4)
        assert produced == oracle
        assert len(produced) == 166

    def test_cap_guards_large_enumerations(self):
        with pytest.raises(SchemaError):
            enumerate_nodes(5)

    def test_cap_override(self):
        assert len(enumerate_nodes(5, max_predictors=5)) == 7579

    @pytest.mark.parametrize(
        "build", [enumerate_nodes, Lattice, lattice_for], ids=lambda f: f.__name__
    )
    def test_ceiling_holds_whatever_the_cap(self, build):
        # Raised before any enumeration: n = 6 would start 7,828,352 nodes.
        assert MAX_DENSE_PREDICTORS == 5
        for n, cap in ((6, 6), (7, 100)):
            with pytest.raises(SchemaError, match="7,828,352 nodes"):
                build(n, cap)


def lattice_order_key(n: int):
    """The lattice's sort key, with each up-set size counted by brute force.

    Bottom first: a larger up-set of sources (the events that contain a
    member) comes first, then fewer members, then members in size-then-
    lexicographic order.
    """
    events = [frozenset(e.indices) for e in specamb.lattice.source_events(n)]

    def key(node: LatticeNode):
        members = [frozenset(a.indices) for a in node.sources]
        up = sum(1 for e in events if any(m <= e for m in members))
        return (-up, len(members), [(len(a.indices), a.indices) for a in node.sources])

    return key


class TestIntegerBuild:
    """The integer build against the set-based oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_nodes_are_the_oracle_in_lattice_order(self, n):
        lattice = Lattice(n, 5)
        expected = tuple(sorted(enumerate_nodes(n, 5), key=lattice_order_key(n)))
        assert lattice.nodes == expected
        assert lattice.names == tuple(map(str, expected))
        assert lattice.member_masks == tuple(
            tuple(sum(1 << (i - 1) for i in a.indices) for a in node.sources)
            for node in expected
        )
        assert all(lattice.position(node) == j for j, node in enumerate(expected))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_covers_are_the_maximal_strictly_lower_nodes(self, n):
        lattice = Lattice(n)
        nodes = lattice.nodes
        below = [
            {k for k, beta in enumerate(nodes) if k != j and node_leq(beta, alpha)}
            for j, alpha in enumerate(nodes)
        ]
        for j, lower in enumerate(below):
            maximal = {k for k in lower if not any(k in below[i] for i in lower)}
            assert lattice.cover_positions[j] == tuple(sorted(maximal))

    def test_build_does_not_use_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice build called enumerate_nodes")

        monkeypatch.setattr(specamb.lattice, "enumerate_nodes", refuse)
        assert len(Lattice(4).nodes) == 166

    def test_position_rejects_a_foreign_node(self):
        with pytest.raises(SchemaError):
            lattice_for(2).position(LatticeNode.of((1, 3)))


class TestLatticeNode:
    def test_members_canonically_ordered(self):
        node = LatticeNode.of((2,), (1,))
        assert [e.indices for e in node.sources] == [(1,), (2,)]

    def test_size_then_lexicographic_order(self):
        node = LatticeNode.of((1, 2), (3,))
        assert [e.indices for e in node.sources] == [(3,), (1, 2)]

    def test_str_uses_braced_members(self):
        assert str(LatticeNode.of((1, 2), (1, 3))) == "{12}{13}"

    def test_rejects_non_antichain(self):
        with pytest.raises(SchemaError):
            LatticeNode.of((1,), (1, 2))

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            LatticeNode.of()

    def test_accepts_source_events(self):
        node = LatticeNode.of(SourceEvent.of(2), SourceEvent.of(1))
        assert str(node) == "{1}{2}"


class TestOrder:
    def test_leq_definition(self):
        lower = LatticeNode.of((1,), (2,))
        upper = LatticeNode.of((1, 2))
        assert node_leq(lower, upper)
        assert not node_leq(upper, lower)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_partial_order_axioms(self, n):
        nodes = sorted(enumerate_nodes(n), key=str)
        for a in nodes:
            assert node_leq(a, a)
        for a in nodes:
            for b in nodes:
                if node_leq(a, b) and node_leq(b, a):
                    assert a == b
        for a in nodes:
            for b in nodes:
                if not node_leq(a, b):
                    continue
                for c in nodes:
                    if node_leq(b, c):
                        assert node_leq(a, c)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_meet_is_greatest_lower_bound(self, n):
        nodes = sorted(enumerate_nodes(n), key=str)
        for a in nodes:
            for b in nodes:
                glb = meet(a, b)
                assert node_leq(glb, a) and node_leq(glb, b)
                for c in nodes:
                    if node_leq(c, a) and node_leq(c, b):
                        assert node_leq(c, glb)

    def test_bottom_and_top(self):
        lattice = lattice_for(3)
        assert str(lattice.nodes[0]) == "{1}{2}{3}"
        assert str(lattice.nodes[-1]) == "{123}"

    def test_nodes_listed_bottom_first(self):
        lattice = lattice_for(3)
        seen = set()
        for node in lattice.nodes:
            assert lattice.down_set(node) - {node} <= seen
            seen.add(node)

    def test_bivariate_node_order(self):
        lattice = lattice_for(2)
        assert [str(n) for n in lattice.nodes] == ["{1}{2}", "{1}", "{2}", "{12}"]


class TestCovers:
    def test_lower_covers_match_oracle(self):
        lattice = lattice_for(3)
        for node in lattice.nodes:
            strictly_below = lattice.down_set(node) - {node}
            maximal = {
                a for a in strictly_below
                if not any(a != b and lattice.leq(a, b) for b in strictly_below)
            }
            assert set(lattice.lower_covers(node)) == maximal

    def test_pairwise_joint_node_covers(self):
        lattice = lattice_for(3)
        node = LatticeNode.of((1, 2), (1, 3), (2, 3))
        covers = {str(c) for c in lattice.lower_covers(node)}
        assert covers == {"{1}{23}", "{2}{13}", "{3}{12}"}

    def test_singleton_node_cover(self):
        lattice = lattice_for(3)
        covers = {str(c) for c in lattice.lower_covers(LatticeNode.of((1,)))}
        assert covers == {"{1}{23}"}


def monotone_member_values(rng: random.Random, n: int) -> dict[SourceEvent, float]:
    """Random values that grow strictly along event inclusion."""
    values: dict[SourceEvent, float] = {}
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            event = SourceEvent.of(*combo)
            floor = max(
                (values[sub] for sub in values if sub.issubset(event)),
                default=0.0,
            )
            values[event] = floor + rng.uniform(0.01, 1.0)
    return values


class TestInversion:
    def test_mobius_round_trip(self):
        lattice = lattice_for(3)
        rng = random.Random(11)
        increments = {node: rng.uniform(0.0, 2.0) for node in lattice.nodes}
        cumulative = {
            node: math.fsum(increments[b] for b in lattice.down_set(node))
            for node in lattice.nodes
        }
        recovered = lattice.mobius_invert(cumulative)
        for node in lattice.nodes:
            assert recovered[node] == pytest.approx(increments[node], abs=1e-9)

    def test_mobius_requires_every_node(self):
        lattice = lattice_for(2)
        partial = {lattice.nodes[0]: 1.0}
        with pytest.raises(SchemaError):
            lattice.mobius_invert(partial)

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_matches_inversion(self, n):
        lattice = lattice_for(n)
        for seed in range(25):
            rng = random.Random(seed)
            member = monotone_member_values(rng, n)
            cumulative = {
                node: min(member[event] for event in node.sources)
                for node in lattice.nodes
            }
            recursive = lattice.mobius_invert(cumulative)
            for node in lattice.nodes:
                direct = closed_form_partial(lattice, node, member)
                assert direct == pytest.approx(recursive[node], abs=1e-9)
                assert direct >= -1e-9

    def test_closed_form_accepts_callable(self):
        lattice = lattice_for(2)
        value = closed_form_partial(
            lattice, LatticeNode.of((1, 2)), lambda e: float(len(e.indices))
        )
        assert value == 1.0


class TestLatticeFor:
    def test_same_object_is_cached(self):
        assert lattice_for(3) is lattice_for(3)

    def test_cap_guards_the_call_not_the_cache(self):
        assert lattice_for(4, 4) is lattice_for(4, 5)
        with pytest.raises(SchemaError):
            lattice_for(5)

    def test_fresh_instance_shares_structure(self):
        assert lattice_for(2).nodes == Lattice(2).nodes
