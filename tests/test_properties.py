"""Randomised invariants over exact rational distributions.

Each property draws a seed, builds a small random distribution with
exact rational masses, and asserts an identity the engine promises for
every input, not just the worked examples.
"""

import csv
import io
import json
import math
import random
from dataclasses import astuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import random_rational_distribution
from specamb.checks import (
    check_closed_form_agreement,
    check_conditional_corollaries,
    check_lattice_monotonicity,
    check_member_permutation,
    check_mobius_reconstruction,
    check_superset_irrelevance,
    run_all,
)
from specamb.corpus import CORPUS_NAMES, build
from specamb.decomposition import (
    ZERO_CLAMP,
    AtomRow,
    AtomTable,
    coarsening_invariance_report,
    decompose,
    node_redundancy,
    rmin_ambiguity,
    rmin_specificity,
    target_chain_rule_report,
)
from specamb.distribution import JointDistribution, SourceEvent
from specamb.lattice import closed_form_partial, lattice_for, node_leq
from specamb.measures import (
    ambiguity,
    log_of,
    mutual_information,
    pointwise_mutual_information,
    specificity,
)

TOL = 1e-9

moderate = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

light = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def draw_distribution(seed, n, composite=False):
    return random_rational_distribution(random.Random(seed), n, composite=composite)


def all_events(n):
    return [
        SourceEvent.of(*combo)
        for size in range(1, n + 1)
        for combo in combinations(range(1, n + 1), size)
    ]


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_signed_information_splits(seed, n):
    dist = draw_distribution(seed, n)
    for realisation in dist.support:
        for event in all_events(n):
            pmi = float(pointwise_mutual_information(dist, realisation, event))
            split = float(specificity(dist, event, realisation)) - float(
                ambiguity(dist, event, realisation)
            )
            assert abs(pmi - split) <= TOL


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_partial_terms_are_nonnegative(seed, n):
    table = decompose(draw_distribution(seed, n))
    for rows in table.pointwise.values():
        for row in rows.values():
            assert row.pi_plus >= -TOL
            assert row.pi_minus >= -TOL


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_node_values_grow_up_the_lattice(seed, n):
    dist = draw_distribution(seed, n)
    table = decompose(dist)
    lattice = lattice_for(n)
    for rows in table.pointwise.values():
        for alpha in lattice.nodes:
            for beta in lattice.nodes:
                if lattice.leq(alpha, beta):
                    assert rows[alpha].r_plus <= rows[beta].r_plus + TOL
                    assert rows[alpha].r_minus <= rows[beta].r_minus + TOL


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_pointwise_totals_tile_the_joint_surprisals(seed, n):
    dist = draw_distribution(seed, n)
    table = decompose(dist)
    everything = SourceEvent.of(*range(1, n + 1))
    for realisation in dist.support:
        plus, minus = table.pointwise_sums(realisation)
        assert abs(plus - float(specificity(dist, everything, realisation))) <= TOL
        assert abs(minus - float(ambiguity(dist, everything, realisation))) <= TOL


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_total_is_the_mutual_information(seed, n):
    dist = draw_distribution(seed, n)
    table = decompose(dist)
    assert abs(float(table.total()) - float(mutual_information(dist))) <= TOL


def named(dist, realisation, sources=(), components=()):
    """The labels ``realisation`` takes at ``sources`` and ``components``, keyed by name."""
    schema = dist.schema
    event = {
        schema.predictors[i - 1]: realisation.predictors[i - 1]
        for source in sources
        for i in source.indices
    }
    names = schema.target_components or (schema.target,)
    event.update((name, realisation.target[names.index(name)]) for name in components)
    return event


def log_ratio(dist, event, given, base):
    """``log p(event | given)`` from two name-keyed ``probability`` calls."""
    return log_of(dist.probability({**event, **given}) / dist.probability(given), base)


@moderate
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3]),
    composite=st.booleans(),
    base=st.sampled_from([2.0, 10.0]),
)
def test_measures_are_ratios_of_named_probabilities(seed, n, composite, base):
    # The measures read the joint tables by position; each value must be
    # bit for bit the one the name-keyed probability route gives.
    dist = draw_distribution(seed, n, composite=composite)
    rng = random.Random(seed)
    names = dist.schema.target_components or (dist.schema.target,)
    events = all_events(n)
    for realisation in dist.support:
        source = rng.choice(events)
        given_sources = rng.sample(events, rng.randint(0, min(2, len(events))))
        held = tuple(rng.sample(names, rng.randint(0, len(names))))
        towards = None
        if rng.random() < 0.7:
            towards = tuple(rng.sample(names, rng.randint(1, len(names))))
        a = named(dist, realisation, (source,))
        g = named(dist, realisation, given_sources, held)
        t = named(dist, realisation, (), names if towards is None else towards)
        options = dict(given_sources=given_sources, given_components=held, base=base)
        spec = specificity(dist, source, realisation, **options)
        amb = ambiguity(dist, source, realisation, components=towards, **options)
        pmi = pointwise_mutual_information(
            dist, realisation, source, components=towards, **options
        )
        assert repr(spec.value) == repr(-log_ratio(dist, a, g, base))
        assert repr(amb.value) == repr(-log_ratio(dist, a, {**t, **g}, base))
        expected = log_ratio(dist, t, {**a, **g}, base) - log_ratio(dist, t, g, base)
        assert repr(pmi.value) == repr(expected)


@light
@given(seed=st.integers(0, 10**9), n=st.sampled_from([2, 3]))
def test_invariant_battery_on_scalar_targets(seed, n):
    dist = draw_distribution(seed, n)
    results = run_all(dist, tol=TOL)
    bad = [str(result) for result in results if not result.ok]
    assert not bad, "\n".join(bad)


@light
@given(seed=st.integers(0, 10**9))
def test_invariant_battery_on_composite_targets(seed):
    dist = draw_distribution(seed, 2, composite=True)
    results = run_all(dist, tol=TOL)
    names = {result.name for result in results}
    assert "target-chain-rule" in names
    assert "conditional-corollaries" in names
    bad = [str(result) for result in results if not result.ok]
    assert not bad, "\n".join(bad)


@moderate
@given(seed=st.integers(0, 10**9))
def test_base_change_rescales_everything(seed):
    dist = draw_distribution(seed, 2)
    bits = decompose(dist)
    nats = decompose(dist, base=math.e)
    scale = math.log(2)
    for node in bits.nodes:
        assert nats.averages[node].pi == pytest.approx(
            bits.averages[node].pi * scale, abs=1e-9
        )


def _clamp(x):
    return 0.0 if abs(x) < ZERO_CLAMP else x


def reference_table(dist, given, base, increments):
    """A table built row by row from per-source ``rmin_*`` values.

    Node values are minima over members; ``increments(lattice, r, h)``
    turns one side's node values ``r`` and per-source values ``h`` into
    per-node increments.  Every cell is its own ``AtomRow``, clamped in
    rational mode as ``decompose`` does, and averages are one ``fsum``
    per node and field; the rows are then laid out as the table's
    columns.  Also returns, per realisation, the per-source values and
    the raw increments of both sides.
    """
    lattice = lattice_for(dist.n)
    clamp = _clamp if dist.mode == "rational" else float
    components = dist.schema.target_components or (dist.schema.target,)
    targets = tuple(name for name in components if name not in given)
    events = all_events(dist.n)
    pointwise, sides = {}, {}
    for realisation in dist.support:
        h_plus = {
            a: rmin_specificity(dist, [a], realisation, given=given, base=base) for a in events
        }
        h_minus = {
            a: rmin_ambiguity(dist, [a], realisation, components=targets, given=given, base=base)
            for a in events
        }
        r_plus = {node: min(h_plus[a] for a in node) for node in lattice.nodes}
        r_minus = {node: min(h_minus[a] for a in node) for node in lattice.nodes}
        pi_plus = increments(lattice, r_plus, h_plus)
        pi_minus = increments(lattice, r_minus, h_minus)
        rows = {}
        for node in lattice.nodes:
            plus, minus = clamp(pi_plus[node]), clamp(pi_minus[node])
            rows[node] = AtomRow(r_plus[node], r_minus[node], plus, minus, clamp(plus - minus))
        pointwise[realisation] = rows
        sides[realisation] = (h_plus, h_minus, pi_plus, pi_minus)
    weights = [float(r.p) for r in dist.support]
    averages = {
        node: AtomRow(
            *(
                clamp(math.fsum(w * v for w, v in zip(weights, values)))
                for values in zip(*(astuple(pointwise[r][node]) for r in dist.support))
            )
        )
        for node in lattice.nodes
    }
    table = AtomTable(
        dist,
        lattice,
        targets,
        tuple(given),
        base,
        {r: by_column(lattice, rows) for r, rows in pointwise.items()},
        by_column(lattice, averages),
    )
    return table, sides


def by_column(lattice, rows):
    """The five value columns of ``{node: AtomRow}``, in lattice order."""
    return tuple(map(list, zip(*(astuple(rows[node]) for node in lattice.nodes))))


def mobius_reference(dist, given):
    """The reference table with increments from lattice-wide inversion.

    :meth:`Lattice.mobius_invert` subtracts over whole down-sets, so its
    increments can differ from the sweep's in the last bits.
    """
    return reference_table(dist, given, 2.0, lambda lattice, r, h: lattice.mobius_invert(r))


def cover_reference(dist, given, base):
    """The reference table with increments from the lower-cover closed form.

    Each increment is one subtraction of two node values, as in the sweep,
    so this table must equal ``decompose``'s exactly.
    """

    def increments(lattice, r, h):
        return {node: closed_form_partial(lattice, node, h) for node in lattice.nodes}

    return reference_table(dist, given, base, increments)[0]


sweep_oracle = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@sweep_oracle
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    composite=st.booleans(),
    conditional=st.booleans(),
)
def test_sweep_matches_mobius_and_closed_form(seed, n, composite, conditional):
    # Integer weights 1..9 make exact ties between source probabilities
    # common; binary alphabets keep the n=4 support small.
    dist = random_rational_distribution(
        random.Random(seed), n, composite=composite, max_alphabet=2 if n == 4 else 3
    )
    held = ("t1",) if composite and conditional else ()
    table = decompose(dist, given=held)
    reference, sides = mobius_reference(dist, held)
    lattice = table.lattice
    for realisation, (h_plus, h_minus, pi_plus, pi_minus) in sides.items():
        rows = table.pointwise[realisation]
        for node in lattice.nodes:
            row = rows[node]
            assert abs(row.pi_plus - pi_plus[node]) <= 1e-12
            assert abs(row.pi_minus - pi_minus[node]) <= 1e-12
            assert abs(row.pi_plus - closed_form_partial(lattice, node, h_plus)) <= 1e-12
            assert abs(row.pi_minus - closed_form_partial(lattice, node, h_minus)) <= 1e-12
    assert table.to_csv() == reference.to_csv()


@sweep_oracle
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    composite=st.booleans(),
    conditional=st.booleans(),
)
def test_marginal_layer_matches_brute_force_sums(seed, n, composite, conditional):
    dist = random_rational_distribution(
        random.Random(seed), n, composite=composite, max_alphabet=2 if n == 4 else 3
    )
    arity = 2 if composite else 1

    @lru_cache(maxsize=None)
    def mass(positions, slots, labels):
        return sum(
            (
                row.p
                for row in dist.support
                if tuple(row.predictors[i - 1] for i in positions)
                + tuple(row.target[k] for k in slots)
                == labels
            ),
            Fraction(0),
        )

    def labels_of(row, positions, slots):
        return tuple(row.predictors[i - 1] for i in positions) + tuple(
            row.target[k] for k in slots
        )

    slot_sets = [c for size in range(arity + 1) for c in combinations(range(arity), size)]
    for positions in [()] + [a.indices for a in all_events(n)]:
        for slots in slot_sets:
            joint = dist.joint_masses(positions, slots)
            conditional_table = dist.conditional_masses(positions, slots)
            realised = {labels_of(row, positions, slots) for row in dist.support}
            assert set(joint) == set(conditional_table) == realised
            for labels in realised:
                assert joint[labels] == mass(positions, slots, labels)
                assert conditional_table[labels] == mass(positions, slots, labels) / mass(
                    (), slots, labels[len(positions):]
                )

    def reference(node, realisation, slots):
        given_labels = tuple(realisation.target[k] for k in slots)
        best = max(
            mass(a.indices, slots, realisation.source_labels(a) + given_labels)
            / mass((), slots, given_labels)
            for a in node
        )
        return -math.log2(best)

    held = ("t1",) if composite and conditional else ()
    held_slots = (0,) if held else ()
    for realisation in dist.support:
        for node in lattice_for(n).nodes:
            assert rmin_specificity(dist, node, realisation, given=held) == reference(
                node, realisation, held_slots
            )
            assert rmin_ambiguity(dist, node, realisation, given=held) == reference(
                node, realisation, tuple(range(arity))
            )
            if composite:
                towards_t2 = rmin_ambiguity(dist, node, realisation, components=("t2",))
                assert towards_t2 == reference(node, realisation, (1,))


def test_marginal_memo_stays_bounded():
    dists = [build(name) for name in CORPUS_NAMES]
    dists.append(random_rational_distribution(random.Random(5), 3, composite=True))
    for dist in dists:
        run_all(dist)
        bound = 2**dist.n * 2 ** dist.schema.target_arity()
        tables = dist._marginals
        assert 0 < len(tables) <= bound
        sizes = {key: (len(e.weights), len(e.conditional or ())) for key, e in tables.items()}
        assert all(max(size) <= len(dist.support) for size in sizes.values())
        ranked = dist._ranked
        assert 0 < len(ranked) <= 2 ** dist.schema.target_arity()
        for slots, (masses, ranks) in ranked.items():
            assert list(masses) == sorted(set(masses), reverse=True)
            assert len(ranks) == len(all_events(dist.n))
            for m, rank in enumerate(ranks, 1):
                positions = tuple(i + 1 for i in range(dist.n) if m >> i & 1)
                table = dist.conditional_masses(positions, slots)
                assert set(rank) == set(table)
                assert all(masses[rank[labels]] == p for labels, p in table.items())
        memo = (dict(tables), dict(ranked))
        run_all(dist)
        assert (dict(tables), dict(ranked)) == memo
        realisation = dist.support[0]
        absent = {name: "absent" for name in dist.schema.predictors}
        assert dist.probability(absent) == 0
        assert dist.probability({dist.schema.predictors[0]: "absent"}) == 0
        assert rmin_specificity(dist, [SourceEvent.of(1)], realisation) >= 0
        assert {key: (len(e.weights), len(e.conditional or ())) for key, e in tables.items()} == sizes


def random_multi_target_distribution(rng, n, arity, decimal=False):
    """Up to 12 rows over binary-ish predictors and ``arity`` target components.

    One component is a plain target; more are binary components ``t1..``.
    Integer weights 1..9 make exact ties between probabilities common.
    ``decimal`` writes the masses as 12-place decimals (decimal mode).
    """
    sizes = [rng.randint(1, 2 if n == 4 else 3) for _ in range(n)]
    if arity == 1:
        events = [(str(k),) for k in range(rng.randint(2, 3))]
    else:
        events = list(product("01", repeat=arity))
    cells = list(product(*[[str(v) for v in range(size)] for size in sizes], events))
    cells = rng.sample(cells, rng.randint(1, min(12, len(cells))))
    weights = {cell: rng.randint(1, 9) for cell in cells}
    total = sum(weights.values())
    return JointDistribution.from_rows(
        [
            (f"{w / total:.12f}" if decimal else f"{w}/{total}", cell[:-1], cell[-1])
            for cell, w in weights.items()
        ],
        predictors=tuple(f"s{i}" for i in range(1, n + 1)),
        target="t",
        target_components=tuple(f"t{k}" for k in range(1, arity + 1)) if arity > 1 else None,
        mode="decimal" if decimal else "rational",
    )


def per_node_chain_residuals(dist, order, base=2.0):
    residuals = {}
    for realisation in dist.support:
        for node in lattice_for(dist.n).nodes:
            joint = node_redundancy(dist, node, realisation, components=order, base=base)
            parts = [
                node_redundancy(
                    dist, node, realisation, components=(name,), given=order[:k], base=base
                )
                for k, name in enumerate(order)
            ]
            residuals[(realisation, node)] = joint - math.fsum(parts)
    return residuals


def per_node_coarsening_residuals(dist, base=2.0):
    residuals = {}
    for realisation in dist.support:
        coarse = dist.coarsen_target_to_two_events(realisation.target)
        coarse_real = coarse.realisation(realisation.predictors, ",".join(realisation.target))
        for node in lattice_for(dist.n).nodes:
            d_plus = rmin_specificity(dist, node, realisation, base=base) - rmin_specificity(
                coarse, node, coarse_real, base=base
            )
            d_minus = rmin_ambiguity(dist, node, realisation, base=base) - rmin_ambiguity(
                coarse, node, coarse_real, base=base
            )
            residuals[(realisation, node)] = max(abs(d_plus), abs(d_minus))
    return residuals


def per_node_rmin_deviation(dist, variants, base=2.0):
    worst = 0.0
    for realisation in dist.support:
        for node in lattice_for(dist.n).nodes:
            plus = rmin_specificity(dist, node, realisation, base=base)
            minus = rmin_ambiguity(dist, node, realisation, base=base)
            for members in variants(node):
                worst = max(
                    worst,
                    abs(rmin_specificity(dist, members, realisation, base=base) - plus),
                    abs(rmin_ambiguity(dist, members, realisation, base=base) - minus),
                )
    return worst


def per_node_table_deviation(table, variants):
    """Worst gap between ``rmin_*`` on each variant and the table's node values."""
    dist, base = table.dist, table.base
    given, towards = table.given_components, table.target_components
    worst = 0.0
    for realisation, rows in table.pointwise.items():
        for node, row in rows.items():
            for members in variants(node):
                worst = max(
                    worst,
                    abs(rmin_specificity(dist, members, realisation, given=given, base=base)
                        - row.r_plus),
                    abs(rmin_ambiguity(dist, members, realisation, components=towards,
                                       given=given, base=base) - row.r_minus),
                )
    return worst


def per_node_closed_form_deviation(table):
    """Worst gap between ``closed_form_partial`` and the table's increments."""
    dist, base, lattice = table.dist, table.base, table.lattice
    given, towards = table.given_components, table.target_components
    worst = 0.0
    for realisation, rows in table.pointwise.items():
        h_plus = {
            event: rmin_specificity(dist, [event], realisation, given=given, base=base)
            for event in all_events(dist.n)
        }
        h_minus = {
            event: rmin_ambiguity(dist, [event], realisation, components=towards,
                                  given=given, base=base)
            for event in all_events(dist.n)
        }
        for node, row in rows.items():
            worst = max(
                worst,
                abs(closed_form_partial(lattice, node, h_plus) - row.pi_plus),
                abs(closed_form_partial(lattice, node, h_minus) - row.pi_minus),
            )
    return worst


def per_node_corollaries(dist, base=2.0):
    """The conditional-corollaries ``worst``, one ``rmin_*`` call per node and form."""
    names = dist.schema.target_components
    worst = 0.0
    for realisation in dist.support:
        for node in lattice_for(dist.n).nodes:
            plain_plus = rmin_specificity(dist, node, realisation, base=base)
            for k, name in enumerate(names):
                sub = dist.compose_targets((name,))
                sub_real = sub.realisation(realisation.predictors, (realisation.target[k],))
                worst = max(worst, abs(
                    rmin_specificity(sub, node, sub_real, base=base) - plain_plus))
            for a, b in permutations(names, 2):
                worst = max(
                    worst,
                    abs(rmin_specificity(dist, node, realisation, given=(b,), base=base)
                        - rmin_ambiguity(dist, node, realisation, components=(b,), base=base)),
                    abs(rmin_ambiguity(dist, node, realisation, components=(a,), given=(b,),
                                       base=base)
                        - rmin_ambiguity(dist, node, realisation, components=(a, b),
                                         base=base)),
                )
    return worst


def permuted(node):
    members = list(node.sources)
    return (members[::-1], members[1:] + members[:1])


@sweep_oracle
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    arity=st.sampled_from([1, 2, 3]),
    base=st.sampled_from([2.0, 10.0]),
)
def test_reports_and_checks_match_per_node_values(seed, n, arity, base):
    # The reports read node values off one sweep per conditioning set, and
    # the rmin_* oracle checks off each realisation's member probabilities;
    # the reference evaluates every (realisation, node) through rmin_*.
    dist = random_multi_target_distribution(random.Random(seed), n, arity)
    names = dist.schema.target_components or (dist.schema.target,)
    for order in (names, names[::-1]):
        report = target_chain_rule_report(dist, order, base=base)
        assert dict(report.residuals) == per_node_chain_residuals(dist, order, base)
    report = coarsening_invariance_report(dist, base=base)
    assert dict(report.residuals) == per_node_coarsening_residuals(dist, base)

    table = decompose(dist, base=base)
    full = SourceEvent.of(*range(1, n + 1))

    def padded(node):
        return (list(node.sources) + [full],)

    for check, variants in (
        (check_member_permutation, permuted),
        (check_superset_irrelevance, padded),
    ):
        worst = check(dist, table, base=base).worst
        assert check(dist, base=base).worst == worst == per_node_rmin_deviation(
            dist, variants, base)
    if arity > 1:
        assert repr(check_conditional_corollaries(dist, base=base).worst) == repr(
            per_node_corollaries(dist, base))


@moderate
@given(seed=st.integers(0, 10**9), n=st.sampled_from([1, 2, 3, 4]))
def test_rmin_checks_match_per_node_loops_on_random_tables(seed, n):
    # Random node values and increments make every worst nonzero, so the
    # comparison by repr tests each value the checks compute, not zeros.
    rng = random.Random(seed)
    dist = random_multi_target_distribution(rng, n, 1)
    table = random_table(rng, dist, consistent=False)
    full = SourceEvent.of(*range(1, n + 1))
    for check, reference in (
        (check_member_permutation, lambda: per_node_table_deviation(table, permuted)),
        (check_superset_irrelevance,
         lambda: per_node_table_deviation(table, lambda node: (list(node.sources) + [full],))),
        (check_closed_form_agreement, lambda: per_node_closed_form_deviation(table)),
    ):
        assert repr(check(dist, table).worst) == repr(reference()), check.__name__


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_by_position_matches_closed_form_partial(n):
    # A table whose increments are closed_form_partial's values passes with
    # worst exactly 0.0, so the check's value equals it at every node.
    # Unconditional in base 2, and given t1 in base 10.  At n = 5 two rows
    # keep the 7,579-node reference loop short.
    rng = random.Random(n)
    if n < 5:
        dist = random_multi_target_distribution(rng, n, 2)
    else:
        dist = JointDistribution.from_rows(
            [("2/3", tuple("01101"), ("0", "1")), ("1/3", tuple("11001"), ("1", "1"))],
            predictors=tuple(f"s{i}" for i in range(1, 6)),
            target="t",
            target_components=("t1", "t2"),
        )
    lattice = lattice_for(n, 5)
    for held, base in (((), 2.0), (("t1",), 10.0)):
        towards = tuple(name for name in ("t1", "t2") if name not in held)
        columns = {}
        for realisation in dist.support:
            sides = []
            for h in (
                {event: rmin_specificity(dist, [event], realisation, given=held, base=base)
                 for event in all_events(n)},
                {event: rmin_ambiguity(dist, [event], realisation, components=towards,
                                       given=held, base=base)
                 for event in all_events(n)},
            ):
                sides.append([closed_form_partial(lattice, node, h) for node in lattice.nodes])
            pi_plus, pi_minus = sides
            r = [random_value(rng) for _ in lattice.nodes]
            columns[realisation] = (r, r, pi_plus, pi_minus, [a - b for a, b in zip(*sides)])
        averages = tuple([0.0] * len(lattice.nodes) for _ in range(5))
        table = AtomTable(dist, lattice, towards, held, base, columns, averages)
        assert check_closed_form_agreement(dist, table, base=base).worst == 0.0


def with_near_ties(dist):
    """``dist`` with row masses moved by +-1/10**30 in pairs (total kept).

    Probabilities that were exactly tied become distinct fractions that
    round to the same float, and so to the same surprisal.
    """
    shift = Fraction(1, 10**30)
    rows = [[r.p, r.predictors, r.target] for r in dist.support]
    for k in range(0, len(rows) - 1, 2):
        rows[k][0] += shift
        rows[k + 1][0] -= shift
    schema = dist.schema
    return JointDistribution.from_rows(
        rows,
        predictors=schema.predictors,
        target=schema.target,
        target_components=schema.target_components,
    )


@sweep_oracle
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    arity=st.sampled_from([1, 2, 3]),
    conditional=st.booleans(),
    masses=st.sampled_from(["rational", "decimal", "near-ties"]),
    base=st.sampled_from([2.0, 10.0]),
)
def test_ranked_sweep_and_columns_match_row_by_row_reference(
    seed, n, arity, conditional, masses, base
):
    dist = random_multi_target_distribution(random.Random(seed), n, arity, masses == "decimal")
    if masses == "near-ties":
        dist = with_near_ties(dist)
    held = ("t1",) if arity > 1 and conditional else ()
    table = decompose(dist, given=held, base=base)
    reference = cover_reference(dist, held, base)
    assert table.realisations == dist.support
    assert list(table.pointwise) == list(dist.support)
    for realisation in dist.support:
        assert dict(table.pointwise[realisation]) == dict(reference.pointwise[realisation])
    assert dict(table.averages) == dict(reference.averages)
    for which in ("both", "pointwise", "average"):
        assert table.to_csv(which) == reference.to_csv(which)
        assert table.to_json(which) == reference.to_json(which)
        assert table.to_pretty(which) == reference.to_pretty(which)
    realisation, node = dist.support[0], table.nodes[0]
    with pytest.raises(TypeError):
        table.pointwise[realisation] = {}
    with pytest.raises(TypeError):
        table.pointwise[realisation][node] = reference.averages[node]
    with pytest.raises(TypeError):
        table.averages[node] = reference.averages[node]


@pytest.mark.parametrize("mode", ["rational", "decimal"])
def test_negative_zeros_print_as_the_reference_does(mode):
    # s1 is a function of the target, so p(s1 | t) = 1 and r_minus holds
    # -0.0; s2 is constant, so p(s2) = 1 and r_plus holds -0.0 too, as
    # does the first increment of each specificity sweep before the
    # rational-mode clamp.  JSON keeps the sign of each zero; CSV and
    # pretty text print 0.
    masses = ("1/8", "3/8", "1/4", "1/4") if mode == "rational" else (
        "0.125", "0.375", "0.25", "0.25"
    )
    cells = [("a", "c", "0", "0"), ("a", "c", "1", "0"), ("b", "c", "0", "1"),
             ("b", "c", "1", "1")]
    dist = JointDistribution.from_rows(
        [(p, cell[:3], cell[3]) for p, cell in zip(masses, cells)],
        predictors=("s1", "s2", "s3"),
        target="t",
        mode=mode,
    )
    table = decompose(dist)
    reference = cover_reference(dist, (), 2.0)
    for which in ("both", "pointwise", "average"):
        assert table.to_csv(which) == reference.to_csv(which)
        assert table.to_json(which) == reference.to_json(which)
        assert table.to_pretty(which) == reference.to_pretty(which)
    text = table.to_json()
    assert '"r_minus": -0.0' in text and '"r_plus": -0.0' in text
    assert '"r_minus": 0.0' in text
    assert ('"pi_plus": -0.0' in text) == (mode == "decimal")
    cells = table.to_csv().replace("\n", ",").split(",")
    assert "0" in cells and "-0" not in cells


def integer_layer_distribution(rng, n, arity, family):
    """4 to 12 rows over ``n`` predictors and ``arity`` target components.

    ``family`` picks the masses: ``weights`` (integer weights 1..9 over
    their total, so exact ties are common), ``near-ties`` (the same, moved
    by +-1/10**30), ``decimal`` (12-place decimals), ``coprime`` (``1/p``
    for distinct primes ``p``, the remainder on the last row, so the
    common denominator is their product) or ``tiny`` (``k/10**400`` for
    ``k`` = 1, 2, 3, 5, all below the smallest normal float, and the
    remainder spread over the other rows by integer weights).
    """
    sizes = [2] + [rng.randint(1, 2 if n == 4 else 3) for _ in range(n - 1)]
    if arity == 1:
        events = [(str(k),) for k in range(rng.randint(2, 3))]
    else:
        events = list(product("01", repeat=arity))
    cells = list(product(*[[str(v) for v in range(size)] for size in sizes], events))
    cells = rng.sample(cells, rng.randint(4, min(12, len(cells))))
    weights = [rng.randint(1, 9) for _ in cells]
    total = sum(weights)
    if family == "coprime":
        primes = rng.sample([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41], len(cells) - 1)
        masses = [Fraction(1, p) for p in primes]
        masses.append(1 - sum(masses))
    elif family == "tiny":
        masses = [Fraction(k, 10**400) for k in (1, 2, 3, 5)][: len(cells) - 1]
        rest, spread = 1 - sum(masses), weights[len(masses):]
        masses += [rest * w / sum(spread) for w in spread]
    elif family == "decimal":
        masses = [f"{w / total:.12f}" for w in weights]
    else:
        masses = [Fraction(w, total) for w in weights]
    dist = JointDistribution.from_rows(
        [(p, cell[:-1], cell[-1]) for p, cell in zip(masses, cells)],
        predictors=tuple(f"s{i}" for i in range(1, n + 1)),
        target="t",
        target_components=tuple(f"t{k}" for k in range(1, arity + 1)) if arity > 1 else None,
        mode="decimal" if family == "decimal" else "rational",
    )
    return with_near_ties(dist) if family == "near-ties" else dist


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    arity=st.sampled_from([1, 2, 3]),
    family=st.sampled_from(["weights", "near-ties", "decimal", "coprime", "tiny"]),
)
def test_integer_marginal_layer_matches_fraction_sums(seed, n, arity, family):
    # The reference sums each projection's Fractions row by row and ranks
    # the conditionals by sorting the Fractions themselves.
    dist = integer_layer_distribution(random.Random(seed), n, arity, family)
    assert dist.total_mass == sum((row.p for row in dist.support), Fraction(0))
    slot_sets = [c for size in range(arity + 1) for c in combinations(range(arity), size)]
    for slots in slot_sets:
        given = {}
        for row in dist.support:
            labels = tuple(row.target[k] for k in slots)
            given[labels] = given.get(labels, Fraction(0)) + row.p
        conditionals = []
        # Mask m projects onto the predictors whose bits are set, the
        # order ranked_conditionals uses; mask 0 is the empty projection.
        for m in range(1 << n):
            positions = tuple(i + 1 for i in range(n) if m >> i & 1)
            joint = {}
            for row in dist.support:
                labels = tuple(row.predictors[i - 1] for i in positions) + tuple(
                    row.target[k] for k in slots
                )
                joint[labels] = joint.get(labels, Fraction(0)) + row.p
            conditional = {
                labels: p / given[labels[len(positions):]] for labels, p in joint.items()
            }
            assert dict(dist.joint_masses(positions, slots)) == joint
            assert dict(dist.conditional_masses(positions, slots)) == conditional
            conditionals.append(conditional)
        masses = sorted(set().union(*(table.values() for table in conditionals[1:])), reverse=True)
        rank = {p: k for k, p in enumerate(masses)}
        ranks = tuple(
            {labels: rank[p] for labels, p in table.items()} for table in conditionals[1:]
        )
        got_masses, got_ranks = dist.ranked_conditionals(slots)
        assert got_masses == tuple(masses)
        assert tuple(map(dict, got_ranks)) == ranks
    held = ("t1",) if arity > 1 else ()
    assert decompose(dist, given=held).to_csv() == cover_reference(dist, held, 2.0).to_csv()


def trimmed_json(table, which):
    """``json.dumps`` of ``to_json_dict()`` without the unselected block."""
    payload = table.to_json_dict()
    if which == "pointwise":
        payload.pop("averages")
    elif which == "average":
        payload.pop("pointwise")
    return json.dumps(payload, indent=2, sort_keys=True)


def per_value_csv(table, which):
    """The CSV built cell by cell through ``csv``, one ``format`` call per value."""

    def fmt(x):
        return format(0.0 if x == 0 else x, ".12g")

    def values(row):
        return [fmt(v) for v in (row.r_plus, row.r_minus, row.pi_plus, row.pi_minus, row.pi)]

    schema = table.dist.schema
    labels = table.to_json_dict()["atom_names"]
    shown = table.target_components + table.given_components
    slots = [schema.target_components.index(c) for c in shown] if schema.target_components else [0]
    names = ["r_plus", "r_minus", "pi_plus", "pi_minus", "pi"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if which != "average":
        writer.writerow(["p", *schema.predictors, ",".join(shown), "node", "atom", *names])
        for realisation, rows in table.pointwise.items():
            target = ",".join(realisation.target[k] for k in slots)
            for node in table.nodes:
                writer.writerow([
                    str(realisation.p), *realisation.predictors, target,
                    str(node), labels.get(str(node), ""), *values(rows[node]),
                ])
    if which == "both":
        out.write("\n")
    if which != "pointwise":
        writer.writerow(["node", "atom", *names])
        for node in table.nodes:
            writer.writerow([str(node), labels.get(str(node), ""), *values(table.averages[node])])
    return out.getvalue()


@sweep_oracle
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    arity=st.sampled_from([1, 2, 3]),
    conditional=st.booleans(),
    decimal=st.booleans(),
)
def test_writers_match_json_dumps_and_per_value_csv(seed, n, arity, conditional, decimal):
    # Single-label predictors give events of probability 1, whose r_plus
    # is -0.0: JSON keeps the sign and CSV prints it as 0.
    dist = random_multi_target_distribution(random.Random(seed), n, arity, decimal)
    held = ("t1",) if arity > 1 and conditional else ()
    table = decompose(dist, given=held)
    for which in ("both", "pointwise", "average"):
        assert table.to_json(which) == trimmed_json(table, which)
        assert table.to_csv(which) == per_value_csv(table, which)


@lru_cache(maxsize=None)
def strict_pairs(n):
    """Every ``(alpha, beta)`` with ``alpha`` strictly below ``beta``, by ``node_leq``."""
    nodes = lattice_for(n).nodes
    return tuple(
        (alpha, beta) for alpha in nodes for beta in nodes
        if alpha != beta and node_leq(alpha, beta)
    )


def monotonicity_by_pairs(table):
    """The lattice-monotonicity ``worst`` from a loop over all ordered node pairs."""
    worst = 0.0
    for rows in table.pointwise.values():
        for alpha, beta in strict_pairs(table.dist.n):
            worst = max(
                worst,
                rows[alpha].r_plus - rows[beta].r_plus,
                rows[alpha].r_minus - rows[beta].r_minus,
            )
    return max(worst, 0.0)


def full_down_sets(n):
    down = {node: [node] for node in lattice_for(n).nodes}
    for alpha, beta in strict_pairs(n):
        down[beta].append(alpha)
    return down


def mobius_by_full_down_sets(table):
    """The Moebius-reconstruction ``worst`` from an ``fsum`` over every down-set."""
    down = full_down_sets(table.dist.n)
    worst = 0.0
    for rows in table.pointwise.values():
        for node, below in down.items():
            plus = math.fsum(rows[beta].pi_plus for beta in below)
            minus = math.fsum(rows[beta].pi_minus for beta in below)
            worst = max(worst, abs(plus - rows[node].r_plus), abs(minus - rows[node].r_minus))
    return worst


def assert_lattice_checks_match_references(dist, table, base=2.0):
    for check, reference in (
        (check_lattice_monotonicity, monotonicity_by_pairs),
        (check_mobius_reconstruction, mobius_by_full_down_sets),
    ):
        result = check(dist, table, base=base)
        expected = reference(table)
        assert repr(result.worst) == repr(expected), check.__name__
        assert result.ok == (expected <= TOL)


# Increments of mixed sign and magnitude: 1e16 next to 1.0 makes a plain
# left-to-right sum lose bits that ``fsum`` keeps.
SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e16, -1e16, 1e-300)


def random_value(rng):
    return rng.choice(SPECIAL_VALUES) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0)


def random_table(rng, dist, consistent):
    """An ``AtomTable`` for ``dist`` (a scalar target) with random columns.

    Most increments are exact zeros of either sign, as in the engine's
    tables; the rest are any sign.  The ``r`` columns are random (so not
    monotone), or, when ``consistent``, the ``fsum`` of each node's
    down-set of increments, so that a reconstruction error shows as a
    nonzero ``worst``.
    """
    lattice = lattice_for(dist.n)
    nodes = lattice.nodes
    down = full_down_sets(dist.n)
    columns = {}
    for realisation in dist.support:
        sides = []
        for _ in ("plus", "minus"):
            pi = [
                random_value(rng) if rng.random() < 0.3 else rng.choice((0.0, -0.0))
                for _ in nodes
            ]
            if consistent:
                at = dict(zip(nodes, pi))
                r = [math.fsum(at[beta] for beta in down[node]) for node in nodes]
            else:
                r = [random_value(rng) for _ in nodes]
            sides.append((r, pi))
        (r_plus, pi_plus), (r_minus, pi_minus) = sides
        pi = [a - b for a, b in zip(pi_plus, pi_minus)]
        columns[realisation] = (r_plus, r_minus, pi_plus, pi_minus, pi)
    averages = tuple([random_value(rng) for _ in nodes] for _ in range(5))
    return AtomTable(dist, lattice, (dist.schema.target,), (), 2.0, columns, averages)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    consistent=st.booleans(),
)
def test_lattice_checks_match_pair_loop_and_full_down_sets(seed, n, consistent):
    # The checks walk lower covers and sum only nonzero increments; the
    # references visit every ordered pair and every down-set member.
    rng = random.Random(seed)
    dist = random_multi_target_distribution(rng, n, 1)
    assert_lattice_checks_match_references(dist, random_table(rng, dist, consistent))


@light
@given(
    seed=st.integers(0, 10**9),
    n=st.sampled_from([1, 2, 3, 4]),
    arity=st.sampled_from([1, 2]),
    base=st.sampled_from([2.0, 10.0]),
)
def test_lattice_checks_match_references_on_decimal_tables(seed, n, arity, base):
    # Engine tables, in decimal mode, which clamps no increment.  The fsum of
    # a node's increments can miss its value by rounding, so the
    # reconstruction worst is often not 0 here.
    dist = random_multi_target_distribution(random.Random(seed), n, arity, decimal=True)
    assert_lattice_checks_match_references(dist, decompose(dist, base=base), base)


def test_decimal_tables_have_nonzero_reconstruction_residuals():
    # Keeps the decimal group above from comparing zeros only.
    worsts = []
    for seed in range(10):
        dist = random_multi_target_distribution(random.Random(seed), 3, 2, decimal=True)
        table = decompose(dist)
        worst = check_mobius_reconstruction(dist, table).worst
        assert repr(worst) == repr(mobius_by_full_down_sets(table))
        worsts.append(worst)
    assert any(worsts)
