"""Named invariant checks for a distribution and its decomposition.

Every public function returns a :class:`CheckResult` holding the worst
observed violation, so a caller can both gate on ``ok`` and report how
close the run came to the tolerance.  :func:`run_all` bundles the checks
that apply to a given distribution; the command-line ``verify`` command
prints one line per result.

The checks deliberately recompute their reference values through routes
different from the decomposition engine (probability ratios, library
entropy sums, the closed-form increment), so agreement is evidence and
not tautology.  The member-permutation and superset-irrelevance checks
compare ``rmin_*`` on reordered and padded members with the engine
table's ``r_plus``/``r_minus``; the conditional corollaries stay on
``rmin_*`` alone, as they test how ``given`` and ``components`` resolve.

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
from specamb.distribution import DistributionError, JointDistribution, SchemaError, SourceEvent
from specamb.lattice import (
    DEFAULT_MAX_PREDICTORS,
    LatticeNode,
    closed_form_partial,
    lattice_for,
    source_events,
)
from specamb.measures import (
    ambiguity,
    average,
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


def _rmin_deviation(
    dist: JointDistribution,
    table: AtomTable,
    variants: Callable[[LatticeNode], Iterable[Sequence[SourceEvent]]],
    base: float,
) -> float:
    """Worst gap between ``rmin_*`` on each of ``variants(node)`` and the node's values."""
    given = table.given_components
    towards = table.target_components
    nodes = table.lattice.nodes
    r_minus = table.column("r_minus")
    worst = 0.0
    for realisation, r_plus in table.column("r_plus").items():
        for node, plus, minus in zip(nodes, r_plus, r_minus[realisation]):
            for members in variants(node):
                worst = max(
                    worst,
                    abs(rmin_specificity(dist, members, realisation, given=given, base=base)
                        - plus),
                    abs(rmin_ambiguity(dist, members, realisation, components=towards,
                                       given=given, base=base) - minus),
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
        dist, table, lambda node: (node.sources[::-1], node.sources[1:] + node.sources[:1]), base
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
    full = SourceEvent.of(*range(1, dist.n + 1))
    worst = _rmin_deviation(dist, table, lambda node: (node.sources + (full,),), base)
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
    """The cover-difference shortcut matches the engine's increments."""
    table = _table(dist, table, base, max_predictors)
    lattice = table.lattice
    pi_minus = table.column("pi_minus")
    worst = 0.0
    for realisation, pi_plus in table.column("pi_plus").items():
        h_plus = {
            event: rmin_specificity(dist, [event], realisation, base=base)
            for event in source_events(dist.n)
        }
        h_minus = {
            event: rmin_ambiguity(dist, [event], realisation, base=base)
            for event in source_events(dist.n)
        }
        for node, plus, minus in zip(lattice.nodes, pi_plus, pi_minus[realisation]):
            worst = max(
                worst,
                abs(closed_form_partial(lattice, node, h_plus) - plus),
                abs(closed_form_partial(lattice, node, h_minus) - minus),
            )
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
    names = dist.schema.target_components
    if names is None or len(names) < 2:
        raise SchemaError("conditional corollaries need at least two target components")
    lattice = lattice_for(dist.n, max_predictors)
    reduced = {name: dist.compose_targets((name,)) for name in names}
    slots = {name: dist.schema.component_index(name) for name in names}
    worst = 0.0
    for realisation in dist.support:
        for node in lattice.nodes:
            plain_plus = rmin_specificity(dist, node, realisation, base=base)
            for name, sub in reduced.items():
                sub_real = sub.realisation(
                    realisation.predictors, (realisation.target[slots[name]],)
                )
                worst = max(worst, abs(
                    rmin_specificity(sub, node, sub_real, base=base) - plain_plus))
            for a, b in permutations(names, 2):
                cond_plus = rmin_specificity(dist, node, realisation, given=(b,), base=base)
                amb_b = rmin_ambiguity(dist, node, realisation, components=(b,), base=base)
                cond_minus = rmin_ambiguity(
                    dist, node, realisation, components=(a,), given=(b,), base=base
                )
                pair_minus = rmin_ambiguity(
                    dist, node, realisation, components=(a, b), base=base
                )
                worst = max(
                    worst,
                    abs(cond_plus - amb_b),
                    abs(cond_minus - pair_minus),
                )
    return _result("conditional-corollaries", worst, tol,
                   "all ordered component pairs, all nodes")


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
