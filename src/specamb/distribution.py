"""Exact discrete joint distributions over predictors and a target.

This module is the data layer for the decomposition machinery.  A
:class:`JointDistribution` holds the joint probability mass of ``n``
predictor variables and one target variable.  Each support mass is kept
as a :class:`fractions.Fraction` and as an integer weight over one common
denominator, the least common multiple of the masses' denominators, so
every marginal, conditional and coarsened probability downstream is exact
and is summed in integers; logarithms are taken only at the point where
an information value in bits is actually reported.

Data model
----------
* Event labels are opaque strings.  Alphabets are ordered by first
  appearance in the support.
* The target may be *composite*, i.e. a tuple of named components such as
  ``(t1, t2, t3)``.  Internally a target event is always a tuple of
  component labels, of length one for a scalar target.
* Only the support is stored.  Rows with zero probability are dropped on
  ingestion (with a :class:`ZeroMassRowWarning`), duplicate rows are summed
  (with a :class:`DuplicateRowWarning`), and a negative net mass is an
  error.
* Each row is checked once.  :class:`JointDistribution` checks every row
  it is given: its arity, its labels against the schema's alphabets (one
  column at a time) and a positive mass, read off its integer weight.
  Ingestion merges duplicates, drops zero rows (checking only those) and
  derives the schema, looking for an empty label once per alphabet.
* Distributions are immutable.  All transforms (:meth:`~JointDistribution.marginal`,
  :meth:`~JointDistribution.compose_targets`,
  :meth:`~JointDistribution.coarsen_target_to_two_events`) return new
  objects.
* Every probability is read off one exact marginal layer.  A *projection*
  is a tuple of predictor positions plus a tuple of target-component
  slots; the first query on a projection sums the support's integer
  weights once into a table with the weight of every realised label
  combination.  Its joint view divides each weight by the common
  denominator, and its conditional view by the weight of its component
  labels; each view is built as fractions on first request.  All are
  kept on the distribution, at most one table per projection and one
  entry per support row, and serve
  :meth:`~JointDistribution.probability`, the decomposition engine, its
  reports, the checks, the race markets of :mod:`specamb.kelly`, and the
  projections :meth:`~JointDistribution.marginal` and
  :meth:`~JointDistribution.compose_targets` alike.
* On top of that layer sits one *ranking* per conditioning set of target
  slots (:meth:`~JointDistribution.ranked_conditionals`): the distinct
  conditional masses of all ``2**n - 1`` source events, each a reduced
  pair of integer weights, sorted once by their correctly rounded float
  quotients, with runs of equal floats sorted again on the exact
  fractions, and for each source event's table the integer rank of
  every mass.  The engine compares ranks instead of fractions.

Two ingestion modes are tracked.  In ``rational`` mode (probability tokens
like ``1/4``) the total mass must equal one exactly.  In ``decimal`` mode
(tokens like ``0.25`` or ``2.5e-3``) tokens are read as exact decimal
fractions and the total must equal one within ``1e-9``.

File formats
------------
TSV: one row per outcome, ``probability<TAB>s1<TAB>...<TAB>sn<TAB>t``.  An
optional header line ``#p<TAB>name1<TAB>...<TAB>target`` names the
variables; commas in the target header declare a composite target and the
target column of every row is then the comma-join of the component labels.
Other lines starting with ``#`` are comments.

JSON: an object ``{"schema": {...}, "mass": [{"outcome": [...], "p": ...}]}``
where ``schema`` gives ``predictors`` (list of names), ``target`` (name) and
optionally ``target_components`` (list of names), and each ``outcome`` lists
the predictor labels followed by the target event (a string, or a list of
component labels for composite targets).
"""

from __future__ import annotations

import json
import math
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice, zip_longest
from operator import itemgetter
from types import MappingProxyType
from typing import IO, Literal, Union

__all__ = [
    "DistributionError",
    "FormatError",
    "SchemaError",
    "MassError",
    "DuplicateRowWarning",
    "ZeroMassRowWarning",
    "SourceEvent",
    "Realisation",
    "VariableSchema",
    "JointDistribution",
    "load_distribution",
    "loads_tsv",
    "loads_json",
    "dumps_tsv",
    "dumps_json",
]

Label = str
TargetEvent = tuple[Label, ...]
# Labels by 1-based predictor position and by target slot.
ResolvedEvent = tuple[dict[int, Label], dict[int, Label]]
Mode = Literal["rational", "decimal"]

DECIMAL_MASS_TOL = 1e-9


class DistributionError(ValueError):
    """Base class for every validation failure raised by this module."""


class FormatError(DistributionError):
    """Malformed TSV or JSON input."""


class SchemaError(DistributionError):
    """Inconsistent arity, duplicate names, or unknown variables."""


class MassError(DistributionError):
    """Nonpositive merged mass, misnormalised total, or zero-mass evidence."""


class DuplicateRowWarning(UserWarning):
    """Duplicate outcome rows were summed during ingestion."""


class ZeroMassRowWarning(UserWarning):
    """Zero-probability rows were dropped during ingestion."""


@dataclass(frozen=True, order=True)
class SourceEvent:
    """A nonempty subset of predictor positions, identifying a joint event.

    Positions are 1-based so that rendered node labels read like the usual
    ``{1}{2}`` / ``{12}{13}`` notation.

    >>> SourceEvent.of(2, 1)
    SourceEvent(indices=(1, 2))
    >>> str(SourceEvent.of(1, 3))
    '13'
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise SchemaError("a source event needs at least one predictor")
        if list(self.indices) != sorted(set(self.indices)):
            raise SchemaError(f"indices must be strictly increasing: {self.indices!r}")
        if self.indices[0] < 1:
            raise SchemaError(f"predictor positions are 1-based: {self.indices!r}")

    @classmethod
    def of(cls, *indices: int) -> "SourceEvent":
        return cls(tuple(sorted(set(indices))))

    def issubset(self, other: "SourceEvent") -> bool:
        return set(self.indices) <= set(other.indices)

    def __str__(self) -> str:
        if self.indices[-1] > 9:
            return ",".join(str(i) for i in self.indices)
        return "".join(str(i) for i in self.indices)


@dataclass(frozen=True)
class Realisation:
    """One support row: the realised predictor events, target event, mass."""

    predictors: tuple[Label, ...]
    target: TargetEvent
    p: Fraction

    @property
    def outcome(self) -> tuple[tuple[Label, ...], TargetEvent]:
        return (self.predictors, self.target)

    def source_labels(self, source: SourceEvent) -> tuple[Label, ...]:
        """Labels of this realisation at the positions of ``source``."""
        try:
            return tuple(self.predictors[i - 1] for i in source.indices)
        except IndexError:
            raise SchemaError(
                f"source event {source} exceeds the {len(self.predictors)} predictors"
            ) from None


@dataclass(frozen=True)
class VariableSchema:
    """Names and alphabets of the predictors and the (optional) target.

    ``target_alphabet`` lists target events as tuples of component labels.
    For a composite target it holds the observed joint events only, never
    the product of the component alphabets, which grows exponentially in
    the number of components.
    """

    predictors: tuple[str, ...]
    predictor_alphabets: tuple[tuple[Label, ...], ...]
    target: Union[str, None]
    target_alphabet: Union[tuple[TargetEvent, ...], None]
    target_components: Union[tuple[str, ...], None] = None
    target_component_alphabets: Union[tuple[tuple[Label, ...], ...], None] = None

    def __post_init__(self) -> None:
        names = list(self.predictors)
        if self.target is not None:
            names.append(self.target)
        if self.target_components is not None:
            names.extend(self.target_components)
        if len(set(names)) != len(names):
            raise SchemaError(f"variable names must be unique: {names!r}")
        if not names:
            raise SchemaError("a distribution needs at least one variable")
        if len(self.predictor_alphabets) != len(self.predictors):
            raise SchemaError("one alphabet per predictor is required")
        for name, alphabet in zip(self.predictors, self.predictor_alphabets):
            _check_alphabet(name, alphabet)
        if self.target is None:
            if self.target_alphabet is not None or self.target_components is not None:
                raise SchemaError("target alphabets given without a target")
            return
        if self.target_alphabet is None or not self.target_alphabet:
            raise SchemaError("the target needs a nonempty alphabet")
        if len(set(self.target_alphabet)) != len(self.target_alphabet):
            raise SchemaError("target events must be unique")
        if self.target_components is None:
            if any(len(event) != 1 for event in self.target_alphabet):
                raise SchemaError("scalar target events must have one component")
            if self.target_component_alphabets is not None:
                raise SchemaError("component alphabets given for a scalar target")
            return
        if not self.target_components:
            raise SchemaError("a composite target needs at least one component")
        if self.target_component_alphabets is None or len(
            self.target_component_alphabets
        ) != len(self.target_components):
            raise SchemaError("one alphabet per target component is required")
        for name, alphabet in zip(self.target_components, self.target_component_alphabets):
            _check_alphabet(name, alphabet)
        labels = [set(alphabet) for alphabet in self.target_component_alphabets]
        for event in self.target_alphabet:
            if len(event) != len(labels) or any(
                label not in allowed for label, allowed in zip(event, labels)
            ):
                raise SchemaError(
                    f"target event {event!r} does not match the component alphabets"
                )

    @property
    def n(self) -> int:
        return len(self.predictors)

    @property
    def component_names(self) -> tuple[str, ...]:
        """The names of the target's components; a scalar target is its own one."""
        if self.target is None:
            raise SchemaError("this distribution has no target")
        return self.target_components or (self.target,)

    def component_slots(
        self, names: Union[Sequence[str], None] = None, given: Sequence[str] = ()
    ) -> tuple[int, ...]:
        """Sorted target-event slots of the components ``names`` and ``given`` name.

        This is where every module resolves target-component names.
        ``names=None`` means every component, and a scalar target's own
        name is slot 0.  A name that is unknown or appears twice in one
        list is a :class:`SchemaError`; the two lists may overlap, as the
        selected and the held components of an ambiguity do.

        >>> d = JointDistribution.from_rows(
        ...     [(1, ("0",), ("0", "1"))], target_components=("t1", "t2"))
        >>> d.schema.component_slots(("t2",), given=("t1", "t2"))
        (0, 1)
        """
        slots: set[int] = set()
        for listed in (names, given):
            if listed is None:
                slots.update(range(len(self.component_names)))
                continue
            listed = tuple(listed)
            for name in listed:
                if name not in self.component_names:
                    raise SchemaError(
                        f"unknown target component {name!r}; have {self.component_names!r}"
                    )
                slots.add(self.component_names.index(name))
            if len(set(listed)) != len(listed):
                raise SchemaError(f"repeated target components in {listed!r}")
        return tuple(sorted(slots))

    def component_index(self, name: str) -> int:
        """The slot of one component of a composite target."""
        if self.target_components is None:
            raise SchemaError(f"no target components declared, got {name!r}")
        return self.component_slots((name,))[0]

    def resolve(self, assignment: Assignment) -> ResolvedEvent:
        """Split a name-keyed assignment into labels by position.

        Keys are predictor names, target component names, or the target
        name itself, whose value may be the event tuple or the
        comma-joined label.  Returns the labels by 1-based predictor
        position, as in :class:`SourceEvent`, and by target slot.  The
        target and one of its components that disagree on a label make a
        contradicting event, which is a :class:`MassError`.
        """
        by_predictor: dict[int, Label] = {}
        by_component: dict[int, Label] = {}
        for name, value in assignment.items():
            if name in self.predictors:
                if not isinstance(value, str):
                    raise SchemaError(f"predictor {name!r} takes a single label")
                by_predictor[self.predictors.index(name) + 1] = value
            elif self.target is None:
                raise SchemaError(f"unknown variable {name!r}")
            elif name == self.target:
                arity = self.target_arity()
                event = _split_target(value, arity) if isinstance(value, str) else tuple(value)
                if len(event) != arity:
                    raise SchemaError(f"target event {value!r} has the wrong arity")
                for k, label in enumerate(event):
                    _merge_label(by_component, k, label, self.component_names[k])
            else:
                (k,) = self.component_slots((name,))
                if not isinstance(value, str):
                    raise SchemaError(f"component {name!r} takes a single label")
                _merge_label(by_component, k, value, name)
        return by_predictor, by_component

    def joined(self, event: ResolvedEvent, given: ResolvedEvent) -> ResolvedEvent:
        """``event`` and ``given``, both as :meth:`resolve` returns them, as one event.

        A variable the two label differently is a :class:`MassError` that
        names it, as in :meth:`resolve`: such an event has zero probability.
        """
        predictors, components = dict(given[0]), dict(given[1])
        for i, label in event[0].items():
            _merge_label(predictors, i, label, self.predictors[i - 1])
        for k, label in event[1].items():
            _merge_label(components, k, label, self.component_names[k])
        return predictors, components

    def target_arity(self) -> int:
        """Number of component labels in a target event."""
        if self.target is None:
            raise SchemaError("this distribution has no target")
        if self.target_components is None:
            return 1
        return len(self.target_components)

    def target_label(self) -> str:
        """Header form of the target: the name, or comma-joined components."""
        if self.target is None:
            raise SchemaError("this distribution has no target")
        if self.target_components is not None:
            return ",".join(self.target_components)
        return self.target


def _check_alphabet(name: str, alphabet: tuple[Label, ...]) -> None:
    if not alphabet:
        raise SchemaError(f"alphabet of {name!r} is empty")
    if len(set(alphabet)) != len(alphabet):
        raise SchemaError(f"alphabet of {name!r} has repeated labels: {alphabet!r}")
    if any(label == "" for label in alphabet):
        raise SchemaError(f"alphabet of {name!r} contains an empty label")


RawRow = tuple[Fraction, tuple[Label, ...], TargetEvent]
Assignment = Mapping[str, Union[Label, TargetEvent]]
MassTable = Mapping[tuple[Label, ...], Fraction]
RankTable = Mapping[tuple[Label, ...], int]


class _Marginal:
    """One projection's integer weights, and its exact views once asked for."""

    __slots__ = ("weights", "joint", "conditional")

    def __init__(self, weights: dict[tuple[Label, ...], int]) -> None:
        self.weights = weights
        self.joint: Union[MassTable, None] = None
        self.conditional: Union[MassTable, None] = None


def _labels_getter(positions: Sequence[int]) -> Callable[[tuple[Label, ...]], tuple[Label, ...]]:
    """A function picking ``positions`` out of a label tuple, always as a tuple."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (k,) = positions
        return lambda labels: (labels[k],)
    return lambda labels: ()


def _first_appearance(labels: Iterable[Label]) -> tuple[Label, ...]:
    return tuple(dict.fromkeys(labels))


class JointDistribution:
    """An immutable joint distribution over predictors and a target.

    Build one from explicit rows::

        >>> d = JointDistribution.from_rows(
        ...     [("1/4", ("0", "0"), "0"), ("1/4", ("0", "1"), "1"),
        ...      ("1/4", ("1", "0"), "1"), ("1/4", ("1", "1"), "0")],
        ...     predictors=("s1", "s2"), target="t")
        >>> d.probability({"t": "1"})
        Fraction(1, 2)

    Every support mass is also held as an integer weight over one common
    denominator, ``_scale``, the least common multiple of the masses'
    denominators: row ``k`` has mass ``_weights[k] / _scale`` exactly.
    Two memos sit beside them, both filled on first use and never stale:
    ``_marginals`` holds each projection's integer weights, summed once,
    and the exact joint and conditional :class:`~fractions.Fraction`
    tables built from them when first asked for (:meth:`joint_masses`,
    :meth:`conditional_masses`); ``_ranked`` holds, per conditioning set
    of target slots, the ranking of all source events' conditional
    masses (:meth:`ranked_conditionals`), at most ``2**arity`` entries.
    """

    __slots__ = (
        "schema", "mode", "_mass", "_support", "_scale", "_weights", "_marginals", "_ranked"
    )

    def __init__(
        self,
        schema: VariableSchema,
        mass: Mapping[tuple[tuple[Label, ...], TargetEvent], Fraction],
        mode: Mode = "rational",
    ) -> None:
        if mode not in ("rational", "decimal"):
            raise SchemaError(f"unknown mode {mode!r}")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "mode", mode)
        # Every row given is checked here: its arity, its labels (one column
        # at a time, against the schema's alphabets) and its mass.
        validated = {key: p if isinstance(p, Fraction) else Fraction(p) for key, p in mass.items()}
        if not validated:
            raise MassError("the support is empty")
        n = schema.n
        target_alphabets: tuple[tuple[Label, ...], ...] = ()
        if schema.target_component_alphabets is not None:
            target_alphabets = schema.target_component_alphabets
        elif schema.target_alphabet is not None:
            target_alphabets = (tuple(event[0] for event in schema.target_alphabet),)
        arity = len(target_alphabets)
        all_preds, all_targets = zip(*validated)
        if set(map(len, all_preds)) != {n} or set(map(len, all_targets)) != {arity}:
            bad = next(key for key in validated if (len(key[0]), len(key[1])) != (n, arity))
            raise SchemaError(
                f"outcome {bad!r} does not have {n} predictor events and {arity} target components"
            )
        names = (*schema.predictors, *(schema.target_components or (schema.target,)))
        alphabets = (*schema.predictor_alphabets, *target_alphabets)
        for name, column, alphabet in zip(names, (*zip(*all_preds), *zip(*all_targets)), alphabets):
            unknown = set(column).difference(alphabet)
            if unknown:
                label = next(label for label in column if label in unknown)
                raise SchemaError(f"label {label!r} of {name!r} is not in its alphabet {alphabet!r}")
        scale = math.lcm(*(p.denominator for p in validated.values()))
        weights = tuple(p.numerator * (scale // p.denominator) for p in validated.values())
        if min(weights) <= 0:
            (preds, _), p = next(row for row, w in zip(validated.items(), weights) if w <= 0)
            raise MassError(f"support mass must be positive, got {p} at {preds!r}")
        total = sum(weights)
        if mode == "rational":
            if total != scale:
                raise MassError(f"mass sums to {Fraction(total, scale)}, expected exactly 1")
        elif total > 2 * scale:  # out of tolerance, and perhaps out of float range
            raise MassError("mass sums to more than 2, expected 1 within 1e-9")
        elif abs(total / scale - 1.0) > DECIMAL_MASS_TOL:
            raise MassError(f"mass sums to {total / scale!r}, expected 1 within 1e-9")
        object.__setattr__(self, "_mass", MappingProxyType(validated))
        object.__setattr__(
            self,
            "_support",
            tuple(Realisation(preds, target, p) for (preds, target), p in validated.items()),
        )
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_weights", weights)
        # The exact marginal layer: projection -> integer weights and their
        # views, filled on first use.  The masses are immutable, so a table
        # never goes stale, and there are at most 2**n * 2**arity
        # projections to hold.
        object.__setattr__(self, "_marginals", {})
        # Conditioning slots -> ranked conditionals, at most 2**arity entries.
        object.__setattr__(self, "_ranked", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("JointDistribution is immutable")

    def __repr__(self) -> str:
        return (
            f"JointDistribution(n={self.n}, target={self.schema.target!r}, "
            f"support={len(self._support)}, mode={self.mode!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDistribution):
            return NotImplemented
        return (
            self.schema == other.schema
            and dict(self._mass) == dict(other._mass)
            and self.mode == other.mode
        )

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[object, Sequence[Label], Union[Label, Sequence[Label]]]],
        *,
        predictors: Union[Sequence[str], None] = None,
        target: str = "t",
        target_components: Union[Sequence[str], None] = None,
        mode: Mode = "rational",
    ) -> "JointDistribution":
        """Assemble a distribution from ``(probability, predictors, target)`` rows.

        Probabilities may be ``Fraction``, ``int`` or strings in either the
        rational or the decimal form.  The target entry is a label for a
        scalar target or a sequence of component labels when
        ``target_components`` is given.
        """
        raw: list[RawRow] = []
        for p, preds, tgt in rows:
            if isinstance(tgt, str):
                event: TargetEvent = (tgt,)
            else:
                event = tuple(tgt)
            raw.append((_as_fraction(p), tuple(preds), event))
        return _assemble(
            raw,
            predictors=tuple(predictors) if predictors is not None else None,
            target=target,
            target_components=tuple(target_components) if target_components is not None else None,
            mode=mode,
        )

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def n(self) -> int:
        return self.schema.n

    @property
    def support(self) -> tuple[Realisation, ...]:
        return self._support

    @property
    def mass(self) -> Mapping[tuple[tuple[Label, ...], TargetEvent], Fraction]:
        return self._mass

    @property
    def total_mass(self) -> Fraction:
        return Fraction(sum(self._weights), self._scale)

    def realisation(
        self, predictors: Sequence[Label], target: Union[Label, Sequence[Label], None] = None
    ) -> Realisation:
        """The support row with the given events, or a :class:`MassError`."""
        event: TargetEvent
        if target is None:
            event = ()
        elif isinstance(target, str):
            event = (target,) if self.schema.target_components is None else _split_target(
                target, len(self.schema.target_components)
            )
        else:
            event = tuple(target)
        key = (tuple(predictors), event)
        if key not in self._mass:
            raise MassError(f"outcome {key!r} is not in the support")
        return Realisation(key[0], key[1], self._mass[key])

    # ------------------------------------------------------------------
    # probability queries

    def probability(self, assignment: Assignment) -> Fraction:
        """Exact probability of a partial assignment of variables.

        Keys are predictor names, target component names, or the target name
        itself (whose value may be the event tuple or the comma-joined
        label); :meth:`VariableSchema.resolve` reads them.
        """
        by_predictor, by_component = self.schema.resolve(assignment)
        predictors = tuple(sorted(by_predictor))
        components = tuple(sorted(by_component))
        labels = tuple(map(by_predictor.__getitem__, predictors)) + tuple(
            map(by_component.__getitem__, components)
        )
        return self.joint_masses(predictors, components).get(labels, Fraction(0))

    # ------------------------------------------------------------------
    # exact marginal layer

    def joint_masses(
        self, predictors: tuple[int, ...], components: tuple[int, ...] = ()
    ) -> MassTable:
        """Exact mass of every realised label combination on one projection.

        ``predictors`` lists 1-based predictor positions, as in
        :class:`SourceEvent`, and ``components`` lists 0-based slots of the
        target event; both are strictly increasing tuples.  Keys are the
        predictor labels followed by the component labels; a combination
        with no mass has no key.  The projection's integer weights are
        summed by one pass over the support the first time it is asked
        for; this table divides each by the common denominator once, then
        is kept.

        >>> d = JointDistribution.from_rows(
        ...     [("1/2", ("0", "0"), "0"), ("1/4", ("0", "1"), "1"),
        ...      ("1/4", ("1", "1"), "1")], predictors=("s1", "s2"), target="t")
        >>> dict(d.joint_masses((2,), (0,)))
        {('0', '0'): Fraction(1, 2), ('1', '1'): Fraction(1, 2)}
        """
        entry = self._marginal(predictors, components)
        if entry.joint is None:
            scale = self._scale
            entry.joint = MappingProxyType(
                {labels: Fraction(w, scale) for labels, w in entry.weights.items()}
            )
        return entry.joint

    def conditional_masses(
        self, predictors: tuple[int, ...], components: tuple[int, ...] = ()
    ) -> MassTable:
        """``p(predictor labels | component labels)`` for every realised combination.

        Same projection and keys as :meth:`joint_masses`.  Each joint
        weight is divided once by the weight of its component labels, or
        by the total weight when ``components`` is empty, and the result
        is kept.
        """
        entry = self._marginal(predictors, components)
        if entry.conditional is None:
            given = self._marginal((), components).weights
            cut = len(predictors)
            entry.conditional = MappingProxyType(
                {labels: Fraction(w, given[labels[cut:]]) for labels, w in entry.weights.items()}
            )
        return entry.conditional

    def ranked_conditionals(
        self, components: tuple[int, ...] = ()
    ) -> tuple[tuple[Fraction, ...], tuple[RankTable, ...]]:
        """Every source event's conditional masses given ``components``, ranked.

        Returns ``(masses, ranks)``: ``masses`` holds the distinct values
        of the :meth:`conditional_masses` tables of all ``2**n - 1``
        source events in descending order, and ``ranks[m - 1]`` maps each
        key of the table for the source event with predictor bitmask
        ``m`` (predictor ``i`` is bit ``i - 1``) to the position of its
        mass in ``masses``.  Equal ranks mean equal fractions, so ties
        stay exact.  Ranked once per ``components``, then kept.

        The ranking reads the integer weights: each conditional is the
        reduced pair ``(w // g, d // g)`` of its joint weight ``w`` and
        given weight ``d``, with ``g = gcd(w, d)``, so equal values are
        equal pairs.  The distinct pairs are sorted by ``w / d``; integer
        true division rounds correctly, so that order is monotone in the
        exact value, and only runs of equal floats (near ties, or values
        below the smallest normal float, which all read ``0.0``) are
        sorted again on exact fractions.

        >>> d = JointDistribution.from_rows(
        ...     [("1/2", ("0", "0"), "0"), ("1/4", ("0", "1"), "1"),
        ...      ("1/4", ("1", "1"), "1")], predictors=("s1", "s2"), target="t")
        >>> masses, ranks = d.ranked_conditionals()
        >>> masses
        (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
        >>> dict(ranks[0]), dict(ranks[1])
        ({('0',): 0, ('1',): 2}, {('0',): 1, ('1',): 1})
        """
        ranked = self._ranked.get(components)
        if ranked is not None:
            return ranked
        given = self._marginal((), components).weights
        gcd = math.gcd
        tables = []
        for m in range(1, 1 << self.n):
            predictors = tuple(i + 1 for i in range(self.n) if m >> i & 1)
            cut = len(predictors)
            table = {}
            for labels, w in self._marginal(predictors, components).weights.items():
                d = given[labels[cut:]]
                g = gcd(w, d)
                table[labels] = (w // g, d // g)
            tables.append(table)
        quotient = {pair: pair[0] / pair[1] for table in tables for pair in table.values()}
        order: list[tuple[int, int]] = []
        for _, run in groupby(
            sorted(quotient, key=quotient.__getitem__, reverse=True), quotient.__getitem__
        ):
            run = list(run)
            if len(run) > 1:
                run.sort(key=lambda pair: Fraction(*pair), reverse=True)
            order.extend(run)
        masses = tuple(Fraction(w, d) for w, d in order)
        position = {pair: k for k, pair in enumerate(order)}
        ranks = tuple(
            MappingProxyType({labels: position[pair] for labels, pair in table.items()})
            for table in tables
        )
        ranked = (masses, ranks)
        self._ranked[components] = ranked
        return ranked

    def _marginal(self, predictors: tuple[int, ...], components: tuple[int, ...]) -> _Marginal:
        entry = self._marginals.get((predictors, components))
        if entry is not None:
            return entry
        arity = self.schema.target_arity() if self.schema.target is not None else 0
        for positions, low, high in ((predictors, 1, self.n), (components, 0, arity - 1)):
            if list(positions) != sorted(set(positions)) or (
                positions and not low <= positions[0] <= positions[-1] <= high
            ):
                raise SchemaError(
                    f"bad projection {(predictors, components)!r} for {self.n} predictors "
                    f"and {arity} target components"
                )
        # A row's key is read off ``row.predictors + row.target``.
        key = _labels_getter([i - 1 for i in predictors] + [self.n + k for k in components])
        weights: dict[tuple[Label, ...], int] = {}
        for row, w in zip(self._support, self._weights):
            labels = key(row.predictors + row.target)
            weights[labels] = weights.get(labels, 0) + w
        entry = _Marginal(weights)
        self._marginals[(predictors, components)] = entry
        return entry

    # ------------------------------------------------------------------
    # transforms

    def marginal(self, variables: Sequence[str]) -> "JointDistribution":
        """Marginal over the named variables (schema order is kept).

        ``variables`` may name predictors, target components, or the target
        itself, each at most once; component names go through
        :meth:`VariableSchema.component_slots`.  If the target (or any
        component) is excluded the result has no target and supports only
        plain probability queries.
        """
        schema = self.schema
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise SchemaError(f"repeated variables in {variables!r}")
        keep_preds = [i for i, name in enumerate(schema.predictors) if name in variables]
        components = [name for name in variables if name not in schema.predictors]
        whole = schema.target is not None and schema.target in components
        if whole:
            components.remove(schema.target)
        if components and schema.target is None:
            raise SchemaError(f"unknown variable {components[0]!r}")
        slots = schema.component_slots(components)
        keep_comps = list(schema.component_slots() if whole else slots)
        if not keep_preds and not keep_comps:
            raise SchemaError("a marginal needs at least one variable")
        return self._project(keep_preds, keep_comps)

    def coarsen_target_to_two_events(
        self, event: Union[Label, Sequence[Label]]
    ) -> "JointDistribution":
        """Collapse the target to ``event`` versus everything else.

        The predictor marginal is untouched; the complement event is
        labelled ``~<label>``.
        """
        arity = self.schema.target_arity()
        if isinstance(event, str):
            kept = _split_target(event, arity)
        else:
            kept = tuple(event)
        if len(kept) != arity:
            raise SchemaError(f"target event {event!r} has the wrong arity")
        if kept not in self.joint_masses((), tuple(range(arity))):
            raise MassError(f"target event {kept!r} has zero probability")
        label = ",".join(kept)
        other = f"~{label}"
        mass: dict[tuple[tuple[Label, ...], TargetEvent], Fraction] = {}
        for row in self._support:
            key = (row.predictors, (label if row.target == kept else other,))
            mass[key] = mass.get(key, 0) + row.p
        return _build(mass, self.schema.predictors, self.schema.target, None, self.mode)

    def compose_targets(self, components: Sequence[str]) -> "JointDistribution":
        """Restrict and reorder the composite target to the named components."""
        if self.schema.target_components is None:
            raise SchemaError("this distribution has no target components to compose")
        order = [self.schema.component_index(name) for name in components]
        if not order:
            raise SchemaError("at least one component is required")
        if len(set(order)) != len(order):
            raise SchemaError(f"repeated components in {components!r}")
        return self._project(range(self.n), order)

    def _project(self, keep_preds: Sequence[int], keep_comps: Sequence[int]) -> "JointDistribution":
        """The distribution of some predictors and target slots, off the marginal layer.

        ``keep_preds`` lists 0-based predictor positions in increasing
        order, ``keep_comps`` target slots in the order the result keeps
        them.  The masses are :meth:`joint_masses` of the projection.
        """
        slots = tuple(sorted(keep_comps))
        cut = len(keep_preds)
        target_of = _labels_getter([cut + slots.index(k) for k in keep_comps])
        table = self.joint_masses(tuple(i + 1 for i in keep_preds), slots)
        target, components = _reduced_target(self.schema, keep_comps)
        mass = {(labels[:cut], target_of(labels)): p for labels, p in table.items()}
        predictors = tuple(self.schema.predictors[i] for i in keep_preds)
        return _build(mass, predictors, target, components, self.mode)


def _reduced_target(
    schema: VariableSchema, keep_comps: Sequence[int]
) -> tuple[Union[str, None], Union[tuple[str, ...], None]]:
    """Target name and components after keeping a subset of component slots.

    A single surviving component of a composite target becomes the scalar
    target under its own name, so it stays addressable in later queries.
    """
    if not keep_comps:
        return None, None
    if schema.target_components is None:
        return schema.target, None
    kept = tuple(schema.target_components[k] for k in keep_comps)
    if len(kept) == 1:
        return kept[0], None
    return schema.target, kept


def _merge_label(labels: dict[int, Label], key: int, value: Label, name: str) -> None:
    """Set ``labels[key]`` to ``value`` for the variable ``name``.

    Another label already there makes a contradicting event, which has
    zero probability: a :class:`MassError`.
    """
    held = labels.setdefault(key, value)
    if held != value:
        raise MassError(
            f"the event gives {name!r} both the label {held!r} and {value!r}, "
            "so it has zero probability"
        )


def _split_target(value: str, arity: int) -> TargetEvent:
    if arity == 1:
        return (value,)
    parts = tuple(value.split(","))
    if len(parts) != arity:
        raise SchemaError(f"target label {value!r} does not split into {arity} components")
    return parts


def _as_fraction(p: object) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int) and not isinstance(p, bool):
        return Fraction(p)
    if isinstance(p, str):
        try:
            return Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad probability token {p!r}: {exc}") from None
    raise FormatError(f"unsupported probability type {type(p).__name__}")


def _is_decimal_token(token: str) -> bool:
    return "." in token or "e" in token or "E" in token


def _assemble(
    rows: Sequence[RawRow],
    *,
    predictors: Union[tuple[str, ...], None],
    target: Union[str, None],
    target_components: Union[tuple[str, ...], None],
    mode: Mode,
) -> JointDistribution:
    """Merge duplicate rows, drop zero rows, and build the distribution.

    The distribution checks every row it is given.  A row dropped here,
    for zero mass or because duplicates cancelled, never reaches it, so
    its arity and labels are checked here.
    """
    if not rows:
        raise MassError("no rows given")
    n = len(rows[0][1])
    if predictors is None:
        predictors = tuple(f"s{i}" for i in range(1, n + 1))
    if len(predictors) != n:
        raise SchemaError(f"{len(predictors)} predictor names for {n} columns")

    merged: dict[tuple[tuple[Label, ...], TargetEvent], Fraction] = {}
    dropped: list[tuple[tuple[Label, ...], TargetEvent]] = []
    for p, preds, event in rows:
        key = (preds, event)
        if not p:
            dropped.append(key)
        elif key in merged:
            merged[key] += p
        else:
            merged[key] = p
    duplicates = len(rows) - len(dropped) - len(merged)
    if duplicates:
        cancelled = [key for key, p in merged.items() if not p]
        for key in cancelled:
            del merged[key]
        dropped += cancelled
    arity = len(target_components) if target_components is not None else int(target is not None)
    for preds, event in dropped:
        if len(preds) != n or len(event) != arity:
            raise SchemaError(
                f"row {(preds, event)!r} does not have {n} predictors "
                f"and {arity} target components"
            )
        if "" in preds or "" in event:
            raise FormatError(f"empty event label in row {(preds, event)!r}")
    if duplicates:
        warnings.warn(
            f"summed {duplicates} duplicate outcome row(s)", DuplicateRowWarning, stacklevel=3
        )
    if dropped:
        warnings.warn(
            f"dropped {len(dropped)} zero-probability row(s)", ZeroMassRowWarning, stacklevel=3
        )
    if not merged:
        raise MassError("every row has zero mass")
    return _build(merged, predictors, target, target_components, mode)


def _build(
    mass: dict[tuple[tuple[Label, ...], TargetEvent], Fraction],
    predictors: tuple[str, ...],
    target: Union[str, None],
    target_components: Union[tuple[str, ...], None],
    mode: Mode,
) -> JointDistribution:
    """Derive the schema of a merged, nonempty support and build the distribution.

    Alphabets list labels in order of first appearance.  An empty label
    is a :class:`FormatError`, looked for once per alphabet; every other
    check of a row is the distribution's own.
    """
    all_preds, all_targets = zip(*mass)
    pred_alphabets = _columns(_first_appearance(all_preds), len(predictors))
    target_alphabet: Union[tuple[TargetEvent, ...], None] = None
    component_alphabets: Union[tuple[tuple[Label, ...], ...], None] = None
    if target is not None:
        target_alphabet = _first_appearance(all_targets)
        if target_components is not None:
            component_alphabets = _columns(target_alphabet, len(target_components))
    alphabets = (*pred_alphabets, *(component_alphabets or ()))
    if any("" in alphabet for alphabet in alphabets) or ("",) in (target_alphabet or ()):
        row = next(key for key in mass if "" in key[0] or "" in key[1])
        raise FormatError(f"empty event label in row {row!r}")
    schema = VariableSchema(
        predictors=predictors,
        predictor_alphabets=pred_alphabets,
        target=target,
        target_alphabet=target_alphabet,
        target_components=target_components,
        target_component_alphabets=component_alphabets,
    )
    return JointDistribution(schema, mass, mode=mode)


def _columns(rows: Iterable[tuple[Label, ...]], width: int) -> tuple[tuple[Label, ...], ...]:
    """The labels of each of the first ``width`` columns, by first appearance.

    A short row leaves ``None`` in a column; the row itself then fails
    an arity check, the schema's or the distribution's.
    """
    return tuple(_first_appearance(column) for column in islice(zip_longest(*rows), width))


# ----------------------------------------------------------------------
# parsing


def loads_tsv(text: str) -> JointDistribution:
    """Parse the TSV format described in the module docstring."""
    header: Union[list[str], None] = None
    data_rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip("\r\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line[1:].split("\t")
            if header is None and not data_rows and fields and fields[0].strip() == "p":
                header = [f.strip() for f in fields]
            continue
        data_rows.append((lineno, line.split("\t")))
    if not data_rows:
        raise FormatError("no data rows found")

    width = len(data_rows[0][1])
    if width < 3:
        raise FormatError(
            f"line {data_rows[0][0]}: need probability, predictors and target columns"
        )
    n = width - 2
    if header is not None and len(header) != width:
        raise FormatError(f"header names {len(header)} columns but rows have {width}")

    predictors = tuple(header[1:-1]) if header is not None else None
    target_name = header[-1] if header is not None else "t"
    components: Union[tuple[str, ...], None] = None
    if "," in target_name:
        components = tuple(name.strip() for name in target_name.split(","))
        target_name = "t" if "t" not in (predictors or ()) else "target"
    # With a header the target arity is settled there; headerless files
    # declare a composite target implicitly by the first row's comma count.
    if components is not None:
        arity: Union[int, None] = len(components)
    elif header is not None:
        arity = 1
    else:
        arity = None

    raw: list[RawRow] = []
    decimal = False
    for lineno, fields in data_rows:
        if len(fields) != width:
            raise FormatError(f"line {lineno}: expected {width} columns, got {len(fields)}")
        token = fields[0].strip()
        try:
            p = Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"line {lineno}: bad probability {token!r}") from None
        decimal = decimal or _is_decimal_token(token)
        preds = tuple(fields[1:-1])
        tgt = fields[-1]
        if arity is None:
            arity = tgt.count(",") + 1
            if arity > 1:
                components = tuple(f"t{k}" for k in range(1, arity + 1))
        event = _split_target(tgt, arity)
        raw.append((p, preds, event))
    return _assemble(
        raw,
        predictors=predictors,
        target=target_name,
        target_components=components,
        mode="decimal" if decimal else "rational",
    )


def loads_json(text: str) -> JointDistribution:
    """Parse the JSON format described in the module docstring."""
    try:
        payload = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    if not isinstance(payload, dict) or "mass" not in payload:
        raise FormatError('expected an object with a "mass" array')
    schema = payload.get("schema", {})
    if not isinstance(schema, dict):
        raise FormatError('"schema" must be an object')
    predictors = _json_names(schema, "predictors")
    target = schema.get("target", "t")
    if not isinstance(target, str):
        raise FormatError('"target" must be a string')
    components = _json_names(schema, "target_components")
    rows = payload["mass"]
    if not isinstance(rows, list) or not rows:
        raise FormatError('"mass" must be a nonempty array')

    raw: list[RawRow] = []
    decimal = False
    for entry in rows:
        if not isinstance(entry, dict) or "outcome" not in entry or "p" not in entry:
            raise FormatError(f'each mass entry needs "outcome" and "p": {entry!r}')
        outcome = entry["outcome"]
        if not isinstance(outcome, list) or len(outcome) < 2:
            raise FormatError(f"bad outcome {outcome!r}")
        p_token = entry["p"]
        if isinstance(p_token, str):
            decimal = decimal or _is_decimal_token(p_token)
        p = _as_fraction(p_token)
        *pred_labels, tgt = outcome
        if isinstance(tgt, list):
            event = _json_labels(tgt)
        elif components is not None:
            event = _split_target(_json_labels([tgt])[0], len(components))
        else:
            event = _json_labels([tgt])
        if components is not None and len(event) != len(components):
            raise FormatError(f"target event {tgt!r} has the wrong arity")
        raw.append((p, _json_labels(pred_labels), event))
    if components is None and any(len(event) > 1 for _, _, event in raw):
        components = tuple(f"t{k}" for k in range(1, len(raw[0][2]) + 1))
    return _assemble(
        raw,
        predictors=predictors,
        target=target,
        target_components=components,
        mode="decimal" if decimal else "rational",
    )


def _json_names(schema: dict, key: str) -> Union[tuple[str, ...], None]:
    names = schema.get(key)
    if names is None:
        return None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise FormatError(f'"{key}" must be a list of strings')
    return tuple(names)


def _json_labels(values: list) -> tuple[Label, ...]:
    """Event labels from JSON strings or integers (decimals arrive as strings)."""
    for value in values:
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise FormatError(f"an event label must be a string or a number, got {value!r}")
    return tuple(map(str, values))


def load_distribution(
    source: Union[str, IO[str]], format: str = "tsv"
) -> JointDistribution:
    """Load a distribution from a string or text stream, in TSV or JSON."""
    text = source if isinstance(source, str) else source.read()
    if format == "tsv":
        return loads_tsv(text)
    if format == "json":
        return loads_json(text)
    raise FormatError(f"unknown format {format!r}; use 'tsv' or 'json'")


# ----------------------------------------------------------------------
# serialisation


def dumps_tsv(dist: JointDistribution) -> str:
    """Render a distribution in the TSV format with exact rational masses."""
    schema = _written_schema(dist)
    lines = ["#p\t" + "\t".join([*schema.predictors, schema.target_label()])]
    for row in dist.support:
        lines.append("\t".join([str(row.p), *row.predictors, ",".join(row.target)]))
    return "\n".join(lines) + "\n"


def dumps_json(dist: JointDistribution) -> str:
    """Render a distribution in the JSON format with exact rational masses."""
    schema = _written_schema(dist)
    composite = schema.target_components is not None
    payload: dict[str, object] = {
        "schema": {
            "predictors": list(schema.predictors),
            "target": schema.target,
        }
    }
    if composite:
        payload["schema"]["target_components"] = list(schema.target_components)  # type: ignore[index]
    payload["mass"] = [
        {
            "outcome": [*row.predictors, list(row.target) if composite else row.target[0]],
            "p": str(row.p),
        }
        for row in dist.support
    ]
    return json.dumps(payload, indent=2) + "\n"


def _written_schema(dist: JointDistribution) -> VariableSchema:
    """``dist``'s schema, which must name a target: both formats read one back."""
    if dist.schema.target is None:
        raise SchemaError("a distribution without a target would not read back")
    return dist.schema
