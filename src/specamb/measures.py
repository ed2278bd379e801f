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
    SchemaError,
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


def _assignment(
    dist: JointDistribution,
    realisation: Realisation,
    sources: Iterable[SourceEvent],
    components: Iterable[str],
    full_target: bool,
) -> dict[str, str]:
    schema = dist.schema
    out: dict[str, str] = {}
    for source in sources:
        for i, label in zip(source.indices, realisation.source_labels(source)):
            name = schema.predictors[i - 1]
            if out.setdefault(name, label) != label:
                raise SchemaError(f"conflicting constraints on predictor {name!r}")
    if full_target:
        if schema.target is None:
            raise SchemaError("this distribution has no target")
        out[schema.target] = realisation.target  # type: ignore[assignment]
    for name in components:
        k = schema.component_index(name)
        out[name] = realisation.target[k]
    return out


def _conditional_probability(
    dist: JointDistribution,
    event: dict[str, str],
    given: dict[str, str],
) -> Fraction:
    # With nothing given this is the total mass, so decimal-mode tables
    # that sum to 1 within rounding are normalised as the engine does.
    denom = dist.probability(given)
    if denom == 0:
        raise MassError(f"conditioning event {given!r} has zero probability")
    joint = dist.probability({**event, **given})
    return joint / denom


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
    validate_base(base)
    return InfoValue(-log_of(_conditional_probability(dist, event, {}), base), base)


def pointwise_conditional_entropy(
    dist: JointDistribution,
    event: dict[str, Union[str, tuple[str, ...]]],
    given: dict[str, Union[str, tuple[str, ...]]],
    base: float = 2.0,
) -> InfoValue:
    """Conditional surprisal ``h(event | given)``."""
    validate_base(base)
    return InfoValue(-log_of(_conditional_probability(dist, event, given), base), base)


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
    event = _assignment(dist, realisation, (source,), (), False)
    given = _assignment(dist, realisation, given_sources, given_components, False)
    return InfoValue(-log_of(_conditional_probability(dist, event, given), base), base)


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
    event = _assignment(dist, realisation, (source,), (), False)
    given = _assignment(
        dist,
        realisation,
        given_sources,
        tuple(components) + tuple(given_components) if components is not None else given_components,
        components is None,
    )
    return InfoValue(-log_of(_conditional_probability(dist, event, given), base), base)


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
    target_event = _assignment(
        dist, realisation, (), tuple(components) if components is not None else (), components is None
    )
    given = _assignment(dist, realisation, given_sources, given_components, False)
    source_event = _assignment(dist, realisation, (source,), (), False)
    posterior = _conditional_probability(dist, target_event, {**source_event, **given})
    prior = _conditional_probability(dist, target_event, given)
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
