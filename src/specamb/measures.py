"""Pointwise information measures over exact joint distributions.

Every function here evaluates at a single realisation (a support row) and
returns an :class:`InfoValue` in bits by default.  The central identity is
the split of the pointwise mutual information carried by a source event
``a`` about the realised target event ``t`` into two nonnegative parts::

    i(a; t) = specificity(a) - ambiguity(a)
            = h(a)           - h(a | t)

where ``h`` is the pointwise entropy (surprisal).  Specificity does not
depend on the target event; ambiguity does.  Both generalise to
conditional forms by adding realised source events or target components to
the conditioning set, and the same split applies there.

Each probability is the ratio of two exact joint masses, the event's
with its conditioning and the conditioning's alone, each one entry of
:meth:`JointDistribution.joint_masses` looked up by predictor positions
and target slots.  The realisation-based measures read their labels off
the realisation at those positions; the two name-keyed entropies
resolve their dicts once through :meth:`VariableSchema.resolve`, and
target-component names go through :meth:`VariableSchema.component_slots`,
as everywhere else.  This module never reads the engine's conditional
view (:meth:`JointDistribution.conditional_masses` and its ranking), so
the checks that compare the two, such as recombination identity and
self-redundancy, compare two routes.

Probabilities stay :class:`fractions.Fraction` until the single logarithm
at the end, so equal probabilities always produce bit-identical values.
Averages over the support use compensated summation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from specamb.distribution import (
    DistributionError,
    JointDistribution,
    MassError,
    Realisation,
    ResolvedEvent,
    SourceEvent,
)

__all__ = [
    "InfoValue",
    "pointwise_entropy",
    "pointwise_conditional_entropy",
    "specificity",
    "ambiguity",
    "pointwise_mutual_information",
    "average",
    "mutual_information",
]


@dataclass(frozen=True)
class InfoValue:
    """An information quantity together with the log base it is stated in."""

    value: float
    base: float = 2.0

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        unit = "bits" if self.base == 2.0 else f"base-{self.base:g} units"
        return f"InfoValue({self.value!r} {unit})"


def validate_base(base: float) -> None:
    """Reject a logarithm base that is not finite, positive and unequal to 1.

    Called once at each public entry point, so :func:`log_of` can stay a
    bare logarithm inside the engine's loops.
    """
    if not (math.isfinite(base) and base > 0 and base != 1):
        raise DistributionError(f"log base must be finite, positive and not 1, got {base!r}")


_SMALLEST_NORMAL = 2.0**-1022


def log_of(p: Fraction, base: float) -> float:
    """Logarithm of an exact positive value in a base checked by :func:`validate_base`."""
    if p <= 0:
        raise MassError(f"logarithm of the non-positive value {p}")
    try:
        x = float(p)
    except OverflowError:
        x = math.inf
    if not _SMALLEST_NORMAL <= x < math.inf:
        # Outside the normal float range p rounds to few bits, to 0.0 or
        # to inf; the logarithms of its exact integer parts stay accurate.
        bits = math.log2(p.numerator) - math.log2(p.denominator)
    else:
        bits = math.log2(x)
    if base == 2.0:
        return bits
    return bits / math.log2(base)


def _realised(
    realisation: Realisation, sources: Iterable[SourceEvent], slots: Iterable[int]
) -> ResolvedEvent:
    """The labels ``realisation`` takes at the positions of ``sources`` and at ``slots``."""
    predictors: dict[int, str] = {}
    for source in sources:
        predictors.update(zip(source.indices, realisation.source_labels(source)))
    return predictors, {k: realisation.target[k] for k in slots}


def _mass(dist: JointDistribution, event: ResolvedEvent) -> Fraction:
    """The exact joint mass of ``event``: one :meth:`JointDistribution.joint_masses` entry."""
    predictors, components = event
    positions = tuple(sorted(predictors))
    slots = tuple(sorted(components))
    labels = tuple(map(predictors.__getitem__, positions)) + tuple(
        map(components.__getitem__, slots)
    )
    return dist.joint_masses(positions, slots).get(labels, Fraction(0))


def _conditional(
    dist: JointDistribution, event: ResolvedEvent, given: ResolvedEvent
) -> Fraction:
    """``p(event | given)``, the ratio of the joint masses of both and of ``given``.

    An event that gives a variable another label than ``given`` does has
    zero probability, a :class:`MassError` that names the variable
    (:meth:`VariableSchema.joined`).  With nothing given the denominator
    is the total mass, so decimal-mode tables that sum to 1 within
    rounding are normalised as the engine does.
    """
    denominator = _mass(dist, given)
    if denominator == 0:
        raise MassError("the conditioning event has zero probability")
    return _mass(dist, dist.schema.joined(event, given)) / denominator


def pointwise_entropy(
    dist: JointDistribution,
    event: dict[str, Union[str, tuple[str, ...]]],
    base: float = 2.0,
) -> InfoValue:
    """Surprisal ``h(event) = -log p(event)`` of a partial assignment.

    >>> from specamb.distribution import JointDistribution
    >>> d = JointDistribution.from_rows(
    ...     [("1/2", ("0",), "0"), ("1/4", ("1",), "0"), ("1/4", ("1",), "1")],
    ...     predictors=("s1",))
    >>> pointwise_entropy(d, {"s1": "1"})
    InfoValue(1.0 bits)
    """
    return pointwise_conditional_entropy(dist, event, {}, base)


def pointwise_conditional_entropy(
    dist: JointDistribution,
    event: dict[str, Union[str, tuple[str, ...]]],
    given: dict[str, Union[str, tuple[str, ...]]],
    base: float = 2.0,
) -> InfoValue:
    """Conditional surprisal ``h(event | given)``.

    An ``event`` that contradicts ``given``, or itself, has zero
    probability, so its surprisal is a :class:`MassError` that names the
    variable.
    """
    validate_base(base)
    schema = dist.schema
    p = _conditional(dist, schema.resolve(event), schema.resolve(given))
    return InfoValue(-log_of(p, base), base)


def specificity(
    dist: JointDistribution,
    source: SourceEvent,
    realisation: Realisation,
    *,
    given_sources: Iterable[SourceEvent] = (),
    given_components: Sequence[str] = (),
    base: float = 2.0,
) -> InfoValue:
    """Specificity of a source event: its (conditional) surprisal.

    With empty conditioning this is ``h(a)``, the information the event
    ``a`` supplies about any target whatsoever.  Conditioning on other
    realised source events gives ``h(a | b)``; conditioning on realised
    target components gives the specificity used by conditional
    decompositions.
    """
    validate_base(base)
    slots = dist.schema.component_slots(given_components)
    p = _conditional(
        dist, _realised(realisation, (source,), ()), _realised(realisation, given_sources, slots)
    )
    return InfoValue(-log_of(p, base), base)


def ambiguity(
    dist: JointDistribution,
    source: SourceEvent,
    realisation: Realisation,
    *,
    components: Union[Sequence[str], None] = None,
    given_sources: Iterable[SourceEvent] = (),
    given_components: Sequence[str] = (),
    base: float = 2.0,
) -> InfoValue:
    """Ambiguity of a source event: its surprisal given the target event.

    ``h(a | t)`` by default.  ``components`` restricts the conditioning to
    the named target components (the ambiguity *towards* that part of the
    target); extra realised source events or components extend the
    conditioning set exactly as for :func:`specificity`.
    """
    validate_base(base)
    slots = dist.schema.component_slots(components, given_components)
    p = _conditional(
        dist, _realised(realisation, (source,), ()), _realised(realisation, given_sources, slots)
    )
    return InfoValue(-log_of(p, base), base)


def pointwise_mutual_information(
    dist: JointDistribution,
    realisation: Realisation,
    source: Union[SourceEvent, None] = None,
    *,
    components: Union[Sequence[str], None] = None,
    given_sources: Iterable[SourceEvent] = (),
    given_components: Sequence[str] = (),
    base: float = 2.0,
) -> InfoValue:
    """Pointwise mutual information ``i(a; t) = log [p(t | a) / p(t)]``.

    ``source`` defaults to the full predictor set.  ``components`` selects a
    part of a composite target; the ``given_*`` arguments condition both the
    numerator and the denominator, giving ``i(a; t_sel | t_giv)`` and its
    source-conditioned analogues.  Computed directly from the probability
    ratio, not via the specificity/ambiguity split, so the identity
    ``i = specificity - ambiguity`` is a genuine cross-check.

    The value is negative exactly when the source event is misinformative
    about the realised target event.
    """
    validate_base(base)
    if source is None:
        source = SourceEvent(tuple(range(1, dist.n + 1)))
    schema = dist.schema
    held = schema.component_slots(given_components)
    given_sources = tuple(given_sources)
    target = _realised(realisation, (), schema.component_slots(components))
    posterior = _conditional(dist, target, _realised(realisation, (source, *given_sources), held))
    prior = _conditional(dist, target, _realised(realisation, given_sources, held))
    return InfoValue(log_of(posterior, base) - log_of(prior, base), base)


def average(
    dist: JointDistribution,
    fn: Callable[[Realisation], Union[InfoValue, float]],
    base: float = 2.0,
) -> InfoValue:
    """Support-weighted expectation of a pointwise functional.

    Uses compensated summation, so desk-scale averages of exactly
    representable pointwise values stay exact.
    """
    validate_base(base)
    terms = []
    for row in dist.support:
        value = fn(row)
        terms.append(float(row.p) * float(value))
    return InfoValue(math.fsum(terms), base)


def mutual_information(
    dist: JointDistribution,
    source: Union[SourceEvent, None] = None,
    base: float = 2.0,
) -> InfoValue:
    """Average mutual information ``I(S_a; T)`` carried by a source set."""
    return average(
        dist,
        lambda row: pointwise_mutual_information(dist, row, source, base=base),
        base,
    )
