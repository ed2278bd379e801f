"""Named invariant checks for a distribution and its decomposition.

Every public function returns a :class:`CheckResult` holding the worst
observed violation, so a caller can both gate on ``ok`` and report how
close the run came to the tolerance.  :func:`run_all` bundles the checks
that apply to a given distribution; the command-line ``verify`` command
prints one line per result.

The checks deliberately recompute their reference values through routes
different from the decomposition engine (probability ratios, library
entropy sums, the closed-form increment), so agreement is evidence and
not tautology.  The :mod:`specamb.measures` oracle takes each
probability as a ratio of two exact joint masses, never from the
conditional tables and ranks the engine reads.  The member-permutation
and superset-irrelevance checks compare the values of reordered and
padded members with the engine table's ``r_plus``/``r_minus``; the
conditional corollaries compare values across conditioning sets and
target components.

Those three checks and closed-form agreement value member lists as
``rmin_*`` do, without calling them once per node.  For each
realisation and conditioning set they look up every source event's
exact conditional probability once, as a fraction from
:meth:`JointDistribution.conditional_masses` (the table ``rmin_*``
read), with its surprisal from :func:`log_of`.  A member list's value
is the surprisal of its most probable member; the members are visited
in the list's own order and compared as fractions.  Equal fractions
have equal logarithms, so each value, and so each ``worst``, is bit for
bit the one ``rmin_*`` give.  Closed-form agreement takes each node's
smallest member surprisal over :attr:`Lattice.member_masks` and
subtracts the largest such value over :attr:`Lattice.cover_positions`:
the formula of :func:`closed_form_partial`, by node position.  Each
check resolves its ``given`` and ``components`` once, through
:meth:`VariableSchema.component_slots`, the resolver ``rmin_*`` use, so
the corollaries still test how the two arguments resolve.  None of this
reads the engine's ranks
(:meth:`JointDistribution.ranked_conditionals`) or its sweep.
Self-redundancy still calls ``rmin_*``, so their argument handling
stays exercised.

The checks that take a table read it by column
(:meth:`AtomTable.column`, values indexed by node position) and never
build its :class:`AtomRow` views.  The two that range over the whole
lattice stay linear in it:

* lattice monotonicity walks the nodes bottom first and carries each
  node's strict down-set maximum up its lower covers
  (:attr:`Lattice.cover_positions`), in place of testing every ordered
  pair of nodes;
* Moebius reconstruction sums, for each node, only the nonzero
  increments whose closure (:attr:`Lattice.closures`) contains the
  node's, in place of every member of the node's down-set.

Each ``worst`` is bit for bit the value the pair loop and the full
down-set sum give: subtracting a fixed float is monotone, so the
largest difference is the largest value minus that float, and ``fsum``
is correctly rounded, so exact zeros do not change it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

from specamb.decomposition import (
    AtomTable,
    coarsening_invariance_report,
    decompose,
    rmin_ambiguity,
    rmin_specificity,
    target_chain_rule_report,
)
from specamb.distribution import (
    DistributionError,
    JointDistribution,
    Realisation,
    SchemaError,
    SourceEvent,
)
from specamb.lattice import DEFAULT_MAX_PREDICTORS, lattice_for, source_events
from specamb.measures import (
    ambiguity,
    average,
    log_of,
    pointwise_mutual_information,
    specificity,
)

__all__ = [
    "CheckResult",
    "check_mass_normalisation",
    "check_recombination_identity",
    "check_member_permutation",
    "check_superset_irrelevance",
    "check_self_redundancy",
    "check_lattice_monotonicity",
    "check_partial_nonnegativity",
    "check_mobius_reconstruction",
    "check_closed_form_agreement",
    "check_pointwise_sums",
    "check_total_information",
    "check_bivariate_consistency",
    "check_coarsening_invariance",
    "check_target_chain_rule",
    "check_conditional_corollaries",
    "run_all",
    "validate_tolerance",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    ok: bool
    worst: float
    detail: str

    def __str__(self) -> str:
        flag = "pass" if self.ok else "FAIL"
        return f"{flag}  {self.name}: {self.detail} (worst {self.worst:.3g})"


def validate_tolerance(tol: float) -> None:
    """Reject a tolerance that is not finite and non-negative (bad input, not a failure)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DistributionError(f"tolerance must be finite and non-negative, got {tol!r}")


def _result(name: str, worst: float, tol: float, detail: str) -> CheckResult:
    return CheckResult(name, worst <= tol, worst, detail)


def _table(
    dist: JointDistribution,
    table: Optional[AtomTable],
    base: float,
    max_predictors: int,
) -> AtomTable:
    """``table``, or a fresh decomposition of ``dist`` when none is given.

    A given table must decompose ``dist`` (or an equal distribution) in
    ``base``: the checks compare its values with ones recomputed from
    ``dist`` in ``base``, so any other table would fail them spuriously.
    """
    if table is None:
        return decompose(dist, base=base, max_predictors=max_predictors)
    if table.base != base:
        raise DistributionError(f"the table is in base {table.base!r}, the check in base {base!r}")
    if table.dist is not dist and table.dist != dist:
        raise DistributionError("the table decomposes a different distribution")
    return table


def check_mass_normalisation(
    dist: JointDistribution, *, tol: float = 1e-9
) -> CheckResult:
    """Support masses are positive and sum to one."""
    total = sum(dist.mass.values(), Fraction(0))
    worst = abs(float(total) - 1.0)
    bad = sum(1 for p in dist.mass.values() if p <= 0)
    if bad:
        return CheckResult("mass-normalisation", False, float("inf"),
                           f"{bad} non-positive masses")
    return _result("mass-normalisation", worst, tol, f"total mass {float(total)!r}")


def check_recombination_identity(
    dist: JointDistribution, *, tol: float = 1e-9, base: float = 2.0
) -> CheckResult:
    """Signed pointwise information equals specificity minus ambiguity.

    The left side is a single probability ratio; the right side is the
    difference of two surprisals.
    """
    worst = 0.0
    for realisation in dist.support:
        for event in source_events(dist.n):
            pmi = float(pointwise_mutual_information(dist, realisation, event, base=base))
            split = float(specificity(dist, event, realisation, base=base)) - float(
                ambiguity(dist, event, realisation, base=base)
            )
            worst = max(worst, abs(pmi - split))
    return _result("recombination-identity", worst, tol,
                   f"{len(dist.support)} realisations, all source events")


def _member_values(
    dist: JointDistribution, realisation: Realisation, slots: tuple[int, ...], base: float
) -> tuple[dict[int, Fraction], dict[int, float]]:
    """Each source event's exact conditional probability at ``realisation``, and its surprisal.

    Both maps are keyed by predictor bitmask.  Each probability is one
    lookup in :meth:`JointDistribution.conditional_masses`, given the
    realised labels at ``slots``: the table ``rmin_*`` read.
    """
    given = tuple(realisation.target[k] for k in slots)
    p = {
        m: dist.conditional_masses(event.indices, slots)[realisation.source_labels(event) + given]
        for m, event in enumerate(source_events(dist.n), 1)
    }
    return p, {m: -log_of(x, base) for m, x in p.items()}


def _node_value(
    dist: JointDistribution, realisation: Realisation, slots: tuple[int, ...], base: float
) -> Callable[[Sequence[int]], float]:
    """The ``rmin_*`` value of a member list (bitmasks) at ``realisation``, given ``slots``.

    The value is the surprisal of the most probable member: the members
    are visited in the list's own order and compared as fractions.
    """
    p, h = _member_values(dist, realisation, slots, base)

    def value(members: Sequence[int]) -> float:
        return h[max(members, key=p.__getitem__)]

    return value


def _rmin_deviation(
    dist: JointDistribution,
    table: AtomTable,
    variants: Callable[[tuple[int, ...]], Iterable[Sequence[int]]],
    base: float,
) -> float:
    """Worst gap between the value of each of ``variants(members)`` and the node's values.

    ``members`` are a node's member bitmasks (:attr:`Lattice.member_masks`);
    each variant is valued as ``rmin_*`` would value it, in the table's
    conditioning.
    """
    given = table.given_components
    plus_slots = dist.schema.component_slots(given)
    minus_slots = dist.schema.component_slots(table.target_components, given)
    member_masks = table.lattice.member_masks
    r_minus = table.column("r_minus")
    worst = 0.0
    for realisation, r_plus in table.column("r_plus").items():
        plus_value = _node_value(dist, realisation, plus_slots, base)
        minus_value = _node_value(dist, realisation, minus_slots, base)
        for masks, plus, minus in zip(member_masks, r_plus, r_minus[realisation]):
            for members in variants(masks):
                worst = max(
                    worst,
                    abs(plus_value(members) - plus),
                    abs(minus_value(members) - minus),
                )
    return worst


def check_member_permutation(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Node redundancies ignore the order in which members are listed."""
    table = _table(dist, table, base, max_predictors)
    worst = _rmin_deviation(
        dist, table, lambda members: (members[::-1], members[1:] + members[:1]), base
    )
    return _result("member-permutation", worst, tol, "reversed and rotated members")


def check_superset_irrelevance(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Adding a superset of an existing member never moves the minimum."""
    table = _table(dist, table, base, max_predictors)
    full = (1 << dist.n) - 1
    worst = _rmin_deviation(dist, table, lambda members: (members + (full,),), base)
    return _result("superset-irrelevance", worst, tol,
                   "every node padded with the full predictor event")


def check_self_redundancy(
    dist: JointDistribution, *, tol: float = 1e-9, base: float = 2.0
) -> CheckResult:
    """Single-member nodes reduce to the event's own surprisals."""
    worst = 0.0
    for realisation in dist.support:
        for event in source_events(dist.n):
            worst = max(
                worst,
                abs(rmin_specificity(dist, [event], realisation, base=base)
                    - float(specificity(dist, event, realisation, base=base))),
                abs(rmin_ambiguity(dist, [event], realisation, base=base)
                    - float(ambiguity(dist, event, realisation, base=base))),
            )
    return _result("self-redundancy", worst, tol, "all single-event nodes")


def check_lattice_monotonicity(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Both node redundancies grow along the lattice order.

    ``worst`` is the largest ``r(alpha) - r(beta)`` over all pairs
    ``alpha < beta``, for ``r_plus`` and ``r_minus`` at every realisation,
    or 0.0 when none is positive.  It is found without visiting the pairs:
    see :func:`_down_set_excess`.
    """
    table = _table(dist, table, base, max_predictors)
    covers = table.lattice.cover_positions
    worst = 0.0
    for field in ("r_plus", "r_minus"):
        for values in table.column(field).values():
            worst = max(worst, _down_set_excess(values, covers))
    return _result("lattice-monotonicity", worst, tol,
                   "all ordered node pairs, all realisations")


def _down_set_excess(values: Sequence[float], covers: Sequence[Sequence[int]]) -> float:
    """Largest ``values[alpha] - values[beta]`` over ``alpha`` strictly below ``beta``, or 0.0.

    Walks the nodes bottom first and keeps each node's strict down-set
    maximum: the largest of its lower covers' own values and kept maxima.
    The largest difference at ``beta`` is that maximum minus
    ``values[beta]``, bit for bit (see the module docstring).
    """
    worst = 0.0
    below: list[float] = []
    for own, lower in zip(values, covers):
        top = -math.inf
        for k in lower:
            top = max(top, values[k], below[k])
        below.append(top)
        worst = max(worst, top - own)
    return worst


def check_partial_nonnegativity(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Per-half increments are non-negative (the recombined ones may not be)."""
    table = _table(dist, table, base, max_predictors)
    low = 0.0
    for field in ("pi_plus", "pi_minus"):
        for values in table.column(field).values():
            low = min(low, *values)
    return _result("partial-nonnegativity", max(0.0, -low), tol,
                   "pi+ and pi- at every node and realisation")


def check_mobius_reconstruction(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Summing increments over a down-set recovers the cumulative value.

    At each realisation and side, each node's ``r`` is compared with the
    ``fsum`` of the increments of every node below or equal to it, found
    with :meth:`Lattice.down_set`'s closure test.  Only the nonzero
    increments are gathered: ``fsum`` is correctly rounded, so leaving
    out exact zeros does not change it, and every nonzero increment
    still counts wherever it lies, so the check does not lean on the
    sweep putting them on one chain.
    """
    table = _table(dist, table, base, max_predictors)
    closures = table.lattice.closures
    worst = 0.0
    for increments, cumulative in (("pi_plus", "r_plus"), ("pi_minus", "r_minus")):
        r_columns = table.column(cumulative)
        for realisation, pi in table.column(increments).items():
            nonzero = [(closures[k], v) for k, v in enumerate(pi) if v]
            for closure, r in zip(closures, r_columns[realisation]):
                rebuilt = math.fsum(v for mask, v in nonzero if closure & ~mask == 0)
                worst = max(worst, abs(rebuilt - r))
    return _result("mobius-reconstruction", worst, tol,
                   "cumulative values rebuilt from increments")


def check_closed_form_agreement(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """The cover-difference shortcut matches the engine's increments.

    At each realisation and side, in the table's conditioning, each
    node's value is the smallest member surprisal over
    :attr:`Lattice.member_masks`; its increment is that value minus the
    largest value over its lower covers (:attr:`Lattice.cover_positions`),
    or the value itself at the bottom.  This is
    :func:`closed_form_partial`'s formula by node position: it reads no
    ranks and no sweep.
    """
    table = _table(dist, table, base, max_predictors)
    lattice = table.lattice
    given = table.given_components
    worst = 0.0
    for field, slots in (
        ("pi_plus", dist.schema.component_slots(given)),
        ("pi_minus", dist.schema.component_slots(table.target_components, given)),
    ):
        for realisation, increments in table.column(field).items():
            h = _member_values(dist, realisation, slots, base)[1]
            r = [min(h[m] for m in members) for members in lattice.member_masks]
            for own, lower, increment in zip(r, lattice.cover_positions, increments):
                closed = own - max(r[k] for k in lower) if lower else own
                worst = max(worst, abs(closed - increment))
    return _result("closed-form-agreement", worst, tol,
                   "direct increment vs engine increment")


def check_pointwise_sums(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Increments over the whole lattice sum to the full-event surprisals."""
    table = _table(dist, table, base, max_predictors)
    full = SourceEvent.of(*range(1, dist.n + 1))
    worst = 0.0
    for realisation in table.realisations:
        plus, minus = table.pointwise_sums(realisation)
        worst = max(
            worst,
            abs(plus - float(specificity(
                dist, full, realisation,
                given_components=table.given_components, base=base))),
            abs(minus - float(ambiguity(
                dist, full, realisation,
                given_components=table.given_components, base=base))),
        )
    return _result("pointwise-sums", worst, tol,
                   "lattice totals vs full-event surprisals")


def check_total_information(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Averaged recombined increments sum to the mutual information."""
    table = _table(dist, table, base, max_predictors)
    given = table.given_components

    def signed(realisation) -> float:
        return float(pointwise_mutual_information(
            dist, realisation, given_components=given, base=base))

    information = float(average(dist, signed, base=base))
    worst = abs(float(table.total()) - information)
    return _result("total-information", worst, tol,
                   f"atom total vs mutual information {information:.6g}")


def check_bivariate_consistency(
    dist: JointDistribution,
    table: Optional[AtomTable] = None,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """With two predictors the four atoms tile the single-event surprisals."""
    if dist.n != 2:
        raise SchemaError("bivariate consistency applies to two predictors only")
    table = _table(dist, table, base, max_predictors)
    given = table.given_components
    worst = 0.0
    for realisation in table.realisations:
        atoms = table.bivariate_atoms(realisation)
        for sign, pick in (("plus", lambda r: r.pi_plus), ("minus", lambda r: r.pi_minus)):
            fn = specificity if sign == "plus" else ambiguity
            r = pick(atoms["R"])
            u1 = pick(atoms["U1"])
            u2 = pick(atoms["U2"])
            c = pick(atoms["C"])
            for total, parts in (
                (fn(dist, SourceEvent.of(1), realisation,
                    given_components=given, base=base), r + u1),
                (fn(dist, SourceEvent.of(2), realisation,
                    given_components=given, base=base), r + u2),
                (fn(dist, SourceEvent.of(1, 2), realisation,
                    given_components=given, base=base), r + u1 + u2 + c),
            ):
                worst = max(worst, abs(float(total) - parts))
    return _result("bivariate-consistency", worst, tol,
                   "atom sums vs single- and joint-event surprisals")


def check_coarsening_invariance(
    dist: JointDistribution,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Merging unrealised targets into one event moves nothing."""
    report = coarsening_invariance_report(dist, base=base, max_predictors=max_predictors)
    return _result("coarsening-invariance", report.max_abs_residual, tol,
                   "two-event coarsening at every realised target")


def check_target_chain_rule(
    dist: JointDistribution,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """Redundancy about a composite target telescopes over its components."""
    if dist.schema.target_components is None:
        raise SchemaError("the chain rule applies to composite targets only")
    worst = 0.0
    names = dist.schema.target_components
    orders = [names, tuple(reversed(names))]
    for order in orders:
        report = target_chain_rule_report(
            dist, order, base=base, max_predictors=max_predictors
        )
        worst = max(worst, report.max_abs_residual)
    return _result("target-chain-rule", worst, tol,
                   "declared order and its reverse")


def check_conditional_corollaries(
    dist: JointDistribution,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CheckResult:
    """The three identities tying conditional forms to plain ones.

    For target components a and b: conditional specificity towards b
    equals the ambiguity towards b; specificity does not depend on the
    target at all; ambiguity towards a conditioned on b equals ambiguity
    towards the pair.
    """
    schema = dist.schema
    names = schema.target_components
    if names is None or len(names) < 2:
        raise SchemaError("conditional corollaries need at least two target components")
    member_masks = lattice_for(dist.n, max_predictors).member_masks
    reduced = {name: dist.compose_targets((name,)) for name in names}
    positions = {name: schema.component_index(name) for name in names}
    plain = ()
    # Per ordered pair (a, b): conditional specificity given b against
    # ambiguity towards b, and ambiguity towards a given b against
    # ambiguity towards (a, b).
    pairs = [
        side
        for a, b in permutations(names, 2)
        for side in (
            (schema.component_slots((), (b,)), schema.component_slots((b,))),
            (schema.component_slots((a,), (b,)), schema.component_slots((a, b))),
        )
    ]
    needed = {plain, *(slots for pair in pairs for slots in pair)}
    worst = 0.0
    for realisation in dist.support:
        columns = {
            slots: list(map(_node_value(dist, realisation, slots, base), member_masks))
            for slots in needed
        }
        for name, sub in reduced.items():
            sub_real = sub.realisation(
                realisation.predictors, (realisation.target[positions[name]],)
            )
            sub_plus = map(_node_value(sub, sub_real, plain, base), member_masks)
            worst = max(worst, _largest_gap(sub_plus, columns[plain]))
        for left, right in pairs:
            worst = max(worst, _largest_gap(columns[left], columns[right]))
    return _result("conditional-corollaries", worst, tol,
                   "all ordered component pairs, all nodes")


def _largest_gap(xs: Iterable[float], ys: Iterable[float]) -> float:
    return max((abs(x - y) for x, y in zip(xs, ys)), default=0.0)


def run_all(
    dist: JointDistribution,
    *,
    tol: float = 1e-9,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> tuple[CheckResult, ...]:
    """Run every check that applies to this distribution."""
    validate_tolerance(tol)
    table = decompose(dist, base=base, max_predictors=max_predictors)
    results = [
        check_mass_normalisation(dist, tol=tol),
        check_recombination_identity(dist, tol=tol, base=base),
        check_member_permutation(dist, table, tol=tol, base=base),
        check_superset_irrelevance(dist, table, tol=tol, base=base),
        check_self_redundancy(dist, tol=tol, base=base),
        check_lattice_monotonicity(dist, table, tol=tol, base=base),
        check_partial_nonnegativity(dist, table, tol=tol, base=base),
        check_mobius_reconstruction(dist, table, tol=tol, base=base),
        check_closed_form_agreement(dist, table, tol=tol, base=base),
        check_pointwise_sums(dist, table, tol=tol, base=base),
        check_total_information(dist, table, tol=tol, base=base),
        check_coarsening_invariance(dist, tol=tol, base=base, max_predictors=max_predictors),
    ]
    if dist.n == 2:
        results.insert(11, check_bivariate_consistency(dist, table, tol=tol, base=base))
    names = dist.schema.target_components
    if names is not None and len(names) >= 2:
        results.append(check_target_chain_rule(
            dist, tol=tol, base=base, max_predictors=max_predictors))
        results.append(check_conditional_corollaries(
            dist, tol=tol, base=base, max_predictors=max_predictors))
    return tuple(results)
