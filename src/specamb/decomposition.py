"""Decomposition of pointwise mutual information over redundancy lattices.

The pipeline runs twice per support row, once for each half of the
``i = specificity - ambiguity`` split:

1. the redundancy a node carries is the *minimum* specificity (or
   ambiguity) over its member source events,
2. a threshold sweep turns these cumulative node values into per-node
   increments ``pi_plus`` and ``pi_minus``: the sources are sorted by
   the integer rank of their exact probabilities, and for each distinct
   rank the sources at least that surprising form an up-set, which is
   the up-closure of exactly one node.  That node receives the gap to
   the previous value, so at most ``2**n - 1`` nodes per side are
   nonzero, all on one chain, and every other node gets an exact zero.
   This is the Moebius inversion of a minimum-form measure, without the
   lattice-wide subtraction (:meth:`Lattice.mobius_invert` remains as an
   oracle),
3. the recombined increment ``pi = pi_plus - pi_minus`` is the signed
   share of pointwise mutual information unique to that node.

Both halves are nonnegative at every node and sum over the lattice to the
joint surprisal ``h(s1..sn)`` and ``h(s1..sn | t)`` respectively, so the
recombined increments always account for exactly ``i(s1..sn; t)``.
Averaging the table row-by-row with the support masses gives the familiar
set-level decomposition of ``I(S1..Sn; T)``.

Composite targets support conditional decompositions: ``given`` names the
target components held fixed, and all redundancies become conditional on
their realised events.  Every component name goes through
:meth:`VariableSchema.component_slots`, the one resolver the package
shares (a scalar target's own name is slot 0); from there the engine,
``rmin_*`` and the reports work on sorted target slots.  The target
chain rule (redundancy about a joint target equals the sum of
conditional redundancies in any component order) and the two-event
target coarsening invariance are exposed as report functions, since
they are the load-bearing consistency properties of the construction.

Every lattice-wide node value comes from a sweep per realisation and
conditioning set: ``decompose`` runs two sides, the chain-rule report one
per prefix of its component order and the coarsening report four;
``rmin_*`` evaluate one member list at a time.  A sweep depends only on
the ranks of the realisation's source events, so each side sweeps each
distinct rank vector once, and realisations that share one share its
lists (on a full-support binary input with four predictors, 48 sweeps
serve 64 realisation-sides).  Every probability comes from the
distribution's exact marginal layer
(:meth:`JointDistribution.conditional_masses`).  For each side the
distribution ranks the distinct conditional masses of all ``2**n - 1``
source events once, on exact rationals
(:meth:`JointDistribution.ranked_conditionals`), and each distinct mass
takes one logarithm; a sweep then only compares integer ranks, so the
minimum in step 1, the ranking and ties in step 2 and every equality the
reports check are immune to float noise.

:func:`decompose` builds its result by column: per realisation, five
float lists (``r_plus``, ``r_minus``, ``pi_plus``, ``pi_minus``, ``pi``)
indexed by node position, and five lists of support averages, one
``math.fsum`` per node and field.  Each sweep also returns its chain, the
positions it stepped through; every increment off the two chains is an
exact ``0.0``, so the rational-mode clamp, ``pi`` and the averages of
the three increment fields are computed at chain positions only, and
every other cell is ``0.0``, bit for bit what dense arithmetic on zeros
gives.  The cumulative ``r_plus`` and ``r_minus`` stay dense.  It hands
these columns to the one :class:`AtomTable` constructor.  The
:class:`AtomRow` views of :attr:`AtomTable.pointwise` and
:attr:`AtomTable.averages` are built only when first read.

An :class:`AtomTable` writes itself in all three output formats: CSV
(:meth:`AtomTable.to_csv`), JSON (:meth:`AtomTable.to_json`) and aligned
text (:meth:`AtomTable.to_pretty`).  The JSON text is exactly
``json.dumps(payload, indent=2, sort_keys=True)`` of
:meth:`AtomTable.to_json_dict`, written from per-table text templates
instead of through ``json``'s pure-Python indenting encoder.  Each writer
reads every field in one pass over the whole table and renders each
distinct value once: a table holds few distinct floats (the increment
columns are mostly ``0.0``, and the cumulative columns repeat a few
surprisals).  CSV and pretty text print both zeros as ``0``; JSON keeps
``-0.0`` apart from ``0.0``, which compare equal as dict keys.  The
writers label nodes with the lattice's precomputed :attr:`Lattice.names`,
and no code outside this module reads the column layout.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import chain, groupby, islice
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Union

from specamb.distribution import (
    JointDistribution,
    MassError,
    Realisation,
    SchemaError,
    SourceEvent,
)
from specamb.lattice import (
    DEFAULT_MAX_PREDICTORS,
    Lattice,
    LatticeNode,
    lattice_for,
    source_events,
)
from specamb.measures import InfoValue, log_of, validate_base

__all__ = [
    "AtomRow",
    "AtomTable",
    "ZERO_CLAMP",
    "rmin_specificity",
    "rmin_ambiguity",
    "node_redundancy",
    "decompose",
    "ChainRuleReport",
    "target_chain_rule_report",
    "CoarseningReport",
    "coarsening_invariance_report",
]

ZERO_CLAMP = 1e-12

BIVARIATE_ATOM_NAMES = ("R", "U1", "U2", "C")
BIVARIATE_ATOM_NODES = (
    LatticeNode.of((1,), (2,)),
    LatticeNode.of((1,)),
    LatticeNode.of((2,)),
    LatticeNode.of((1, 2)),
)


@dataclass(frozen=True)
class AtomRow:
    """Values attached to one lattice node (pointwise or averaged)."""

    r_plus: float
    r_minus: float
    pi_plus: float
    pi_minus: float
    pi: float


# The AtomRow fields, in the order of a table's columns.
_FIELDS = tuple(field.name for field in fields(AtomRow))
# One list per field, indexed by node position.
_Columns = tuple[list[float], ...]


def _rmin(
    dist: JointDistribution,
    sources: Union[LatticeNode, Iterable[SourceEvent]],
    realisation: Realisation,
    slots: tuple[int, ...],
    base: float,
) -> float:
    """Surprisal of the most probable member given the realised target ``slots``.

    Each member's probability is one lookup in the distribution's
    conditional table for that member and the conditioning slots.
    """
    given = tuple(realisation.target[k] for k in slots)
    try:
        best = max(
            dist.conditional_masses(a.indices, slots)[realisation.source_labels(a) + given]
            for a in _sources_of(sources)
        )
    except KeyError:
        raise MassError(f"realisation {realisation.outcome!r} is not in the support") from None
    return -log_of(best, base)


def _sources_of(sources: Union[LatticeNode, Iterable[SourceEvent]]) -> tuple[SourceEvent, ...]:
    if isinstance(sources, LatticeNode):
        return sources.sources
    out = tuple(sources)
    if not out:
        raise SchemaError("at least one source event is required")
    return out


def rmin_specificity(
    dist: JointDistribution,
    sources: Union[LatticeNode, Iterable[SourceEvent]],
    realisation: Realisation,
    *,
    given: Sequence[str] = (),
    base: float = 2.0,
) -> float:
    """Minimum (conditional) specificity over a collection of source events.

    Accepts any nonempty collection, not only antichains: the value is
    invariant under member order and under adding a superset of an existing
    member, which is what makes the lattice of antichains sufficient.
    ``given`` names target components to condition on; without them the
    value is target-independent.
    """
    validate_base(base)
    return _rmin(dist, sources, realisation, dist.schema.component_slots(given), base)


def rmin_ambiguity(
    dist: JointDistribution,
    sources: Union[LatticeNode, Iterable[SourceEvent]],
    realisation: Realisation,
    *,
    components: Union[Sequence[str], None] = None,
    given: Sequence[str] = (),
    base: float = 2.0,
) -> float:
    """Minimum ambiguity over source events, towards the realised target.

    ``components`` selects the part of a composite target the ambiguity is
    towards (default: all of it); ``given`` adds fixed components.  Both
    end up in the conditioning set, which is why the conditional form
    towards one component given the rest equals the plain form towards
    their union.
    """
    validate_base(base)
    slots = dist.schema.component_slots(components, given)
    return _rmin(dist, sources, realisation, slots, base)


def node_redundancy(
    dist: JointDistribution,
    sources: Union[LatticeNode, Iterable[SourceEvent]],
    realisation: Realisation,
    *,
    components: Union[Sequence[str], None] = None,
    given: Sequence[str] = (),
    base: float = 2.0,
) -> float:
    """Recombined redundancy: specificity minus ambiguity at a node."""
    return rmin_specificity(dist, sources, realisation, given=given, base=base) - rmin_ambiguity(
        dist, sources, realisation, components=components, given=given, base=base
    )


class AtomTable:
    """Pointwise and averaged lattice increments for one decomposition.

    The table is stored by column, and the constructor takes the
    columns as they are stored: ``columns`` maps each support realisation,
    in support order, to five float lists, ``r_plus``, ``r_minus``,
    ``pi_plus``, ``pi_minus`` and ``pi`` (the :class:`AtomRow` fields),
    indexed by node position in lattice order (:attr:`Lattice.nodes`);
    ``average_columns`` holds the five lists of support averages.  The
    table keeps these lists without copying them, and realisations may
    share a list (``decompose`` shares one sweep's lists between the
    realisations with the same rank vector).  The writers,
    :meth:`total` and :meth:`pointwise_sums` read the columns and label
    nodes with :attr:`Lattice.names`; :meth:`column` hands one field's
    lists to readers such as the checks.

    ``pointwise`` (``{realisation: {node: AtomRow}}``) and ``averages``
    (``{node: AtomRow}``) are read-only views of the same values, keyed
    in lattice order, built the first time they are read and then kept.
    ``to_csv``, ``to_json`` and ``to_pretty`` write the three output
    formats; ``to_json`` is ``json.dumps(..., indent=2, sort_keys=True)``
    of :meth:`to_json_dict`, byte for byte.
    """

    __slots__ = (
        "dist",
        "lattice",
        "target_components",
        "given_components",
        "base",
        "_columns",
        "_average_columns",
        "_pointwise",
        "_averages",
    )

    def __init__(
        self,
        dist: JointDistribution,
        lattice: Lattice,
        target_components: tuple[str, ...],
        given_components: tuple[str, ...],
        base: float,
        columns: dict[Realisation, _Columns],
        average_columns: _Columns,
    ) -> None:
        for name, value in (
            ("dist", dist),
            ("lattice", lattice),
            ("target_components", target_components),
            ("given_components", given_components),
            ("base", base),
            ("_columns", columns),
            ("_average_columns", average_columns),
            ("_pointwise", None),
            ("_averages", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AtomTable is immutable")

    @property
    def pointwise(self) -> Mapping[Realisation, Mapping[LatticeNode, AtomRow]]:
        """Read-only ``{realisation: {node: AtomRow}}``, built on first read."""
        if self._pointwise is None:
            view = {r: self._rows(columns) for r, columns in self._columns.items()}
            object.__setattr__(self, "_pointwise", MappingProxyType(view))
        return self._pointwise

    @property
    def averages(self) -> Mapping[LatticeNode, AtomRow]:
        """Read-only ``{node: AtomRow}`` of support averages, built on first read."""
        if self._averages is None:
            object.__setattr__(self, "_averages", self._rows(self._average_columns))
        return self._averages

    def _rows(self, columns: _Columns) -> Mapping[LatticeNode, AtomRow]:
        return MappingProxyType(dict(zip(self.lattice.nodes, map(AtomRow, *columns))))

    @property
    def nodes(self) -> tuple[LatticeNode, ...]:
        return self.lattice.nodes

    @property
    def realisations(self) -> tuple[Realisation, ...]:
        return tuple(self._columns)

    def total(self) -> InfoValue:
        """Sum of averaged recombined increments: the mutual information."""
        return InfoValue(math.fsum(self._average_columns[4]), self.base)

    def column(self, field: str) -> Mapping[Realisation, list[float]]:
        """``{realisation: values}`` of one :class:`AtomRow` field.

        ``values[j]`` belongs to the node at position ``j`` of
        :attr:`Lattice.nodes`.  The lists are the table's own; read them,
        do not change them.
        """
        if field not in _FIELDS:
            raise SchemaError(f"unknown field {field!r}; use one of {', '.join(_FIELDS)}")
        k = _FIELDS.index(field)
        return {realisation: columns[k] for realisation, columns in self._columns.items()}

    def pointwise_sums(self, realisation: Realisation) -> tuple[float, float]:
        """Lattice-wide sums (pi_plus, pi_minus) at one realisation."""
        columns = self._columns[realisation]
        return math.fsum(columns[2]), math.fsum(columns[3])

    def bivariate_atoms(self, which: str = "average") -> dict[str, AtomRow]:
        """The four named two-predictor atoms R, U1, U2, C.

        ``which`` is ``"average"`` or a realisation from the table.
        """
        if self.dist.n != 2:
            raise SchemaError("named atoms R/U1/U2/C exist only for two predictors")
        columns = self._average_columns if which == "average" else self._columns[which]
        positions = map(self.lattice.position, BIVARIATE_ATOM_NODES)
        return {
            name: AtomRow(*(values[j] for values in columns))
            for name, j in zip(BIVARIATE_ATOM_NAMES, positions)
        }

    # ------------------------------------------------------------------
    # serialisation

    def to_csv(self, which: str = "both") -> str:
        """Deterministic CSV.  ``which`` is ``pointwise``, ``average`` or ``both``.

        The pointwise block has one row per (realisation, node) with columns
        ``p``, the predictor events, the target event, ``node``, ``r_plus``,
        ``r_minus``, ``pi_plus``, ``pi_minus``, ``pi``.  The averaged block
        drops the realisation columns.  Values print with ``%.12g``, and a
        negative zero as ``0``.
        """
        _check_selection(which)
        blocks: list[str] = []
        schema = self.dist.schema
        labels = self._atom_labels()
        node_cells = [
            _csv_cell(name) + "," + _csv_cell(labels.get(node, ""))
            for name, node in zip(self.lattice.names, self.nodes)
        ]
        value_names = ["r_plus", "r_minus", "pi_plus", "pi_minus", "pi"]
        if which != "average":
            shown = self.target_components + self.given_components
            slots = list(map(schema.component_names.index, shown))
            header = (
                ["p", *schema.predictors]
                + [",".join(shown)]
                + ["node", "atom", *value_names]
            )
            lines = [",".join(_csv_cell(h) for h in header)]
            rows = _csv_values(self._columns.values())
            for realisation in self._columns:
                prefix = ",".join(
                    _csv_cell(c)
                    for c in (
                        str(realisation.p),
                        *realisation.predictors,
                        ",".join(map(realisation.target.__getitem__, slots)),
                    )
                )
                lines.extend(
                    f"{prefix},{cell},{row}"
                    for cell, row in zip(node_cells, islice(rows, len(node_cells)))
                )
            blocks.append("\n".join(lines))
        if which != "pointwise":
            lines = [",".join(["node", "atom", *value_names])]
            lines.extend(
                f"{cell},{row}"
                for cell, row in zip(node_cells, _csv_values([self._average_columns]))
            )
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def _atom_labels(self) -> dict[LatticeNode, str]:
        """R/U1/U2/C names for the four two-predictor nodes, else empty."""
        if self.dist.n != 2:
            return {}
        return dict(zip(BIVARIATE_ATOM_NODES, BIVARIATE_ATOM_NAMES))

    def _json_head(self, which: str) -> dict:
        """Table metadata, with ``None`` standing for the selected row blocks."""
        schema = self.dist.schema
        head = {
            "predictors": list(schema.predictors),
            "target_components": list(self.target_components),
            "given_components": list(self.given_components),
            "base": self.base,
            "mode": self.dist.mode,
            "nodes": list(self.lattice.names),
            "atom_names": {str(n): a for n, a in self._atom_labels().items()},
        }
        if which != "average":
            head["pointwise"] = None
        if which != "pointwise":
            head["averages"] = None
        head["total_pi"] = self.total().value
        return head

    def to_json_dict(self) -> dict:
        """JSON-ready dict mirroring the CSV content plus table metadata.

        :meth:`to_json` writes its ``json.dumps(..., indent=2,
        sort_keys=True)`` text without building it.
        """
        names = self.lattice.names
        payload = self._json_head("both")
        payload["pointwise"] = [
            {
                "p": str(realisation.p),
                "predictors": list(realisation.predictors),
                "target": list(realisation.target),
                "atoms": _node_dicts(names, columns),
            }
            for realisation, columns in self._columns.items()
        ]
        payload["averages"] = _node_dicts(names, self._average_columns)
        return payload

    def to_json(self, which: str = "both") -> str:
        """``json.dumps(payload, indent=2, sort_keys=True)``, written directly.

        ``payload`` is :meth:`to_json_dict` without ``averages`` when
        ``which`` is ``pointwise`` and without ``pointwise`` when it is
        ``average``.  Node maps are filled into one text template per
        table, in sorted key order, with ``repr`` of each value, which is
        what ``json`` writes for a finite float (``decompose`` writes no
        other), taken once per distinct value and sign of zero;
        everything else goes through ``json.dumps`` itself, so its
        escaping is exact.
        """
        _check_selection(which)
        head = self._json_head(which)
        text = _dumps(head, 0)
        names = self.lattice.names
        order = sorted(range(len(names)), key=names.__getitem__)
        texts = _json_texts()
        if "averages" in head:
            template = _node_map_template(names, order, 1)
            text = _fill(text, "averages", 0, template % texts(self._average_columns, order))
        if "pointwise" in head:
            template = _node_map_template(names, order, 3)
            entries = []
            for realisation, columns in self._columns.items():
                entry = _dumps(
                    {
                        "atoms": None,
                        "p": str(realisation.p),
                        "predictors": list(realisation.predictors),
                        "target": list(realisation.target),
                    },
                    2,
                )
                atoms = template % texts(columns, order)
                entries.append("\n    " + _fill(entry, "atoms", 2, atoms))
            block = "[" + ",".join(entries) + "\n  ]" if entries else "[]"
            text = _fill(text, "pointwise", 0, block)
        return text

    def to_pretty(self, which: str = "both") -> str:
        """Aligned text for reading.  ``which`` is ``pointwise``, ``average`` or ``both``.

        One block per realisation, titled with its mass, predictor events
        and target event, then one block of averages followed by the total
        information; each block lists every node with its atom name and
        the five values at ``%.6g``.  Blocks are separated by a blank line.
        """
        _check_selection(which)
        labels = self._atom_labels()
        names = self.lattice.names
        width = max(map(len, names)) + 2
        header = (
            f"  {'node':<{width}}{'atom':<6}{'r+':>12}{'r-':>12}"
            f"{'pi+':>12}{'pi-':>12}{'pi':>12}"
        )
        node_cells = [
            f"  {name:<{width}}{labels.get(node, ''):<6}" for name, node in zip(names, self.nodes)
        ]

        def block(title: str, rows: Iterable[str]) -> str:
            return "\n".join([title, header, *map(str.__add__, node_cells, rows)])

        schema = self.dist.schema
        blocks: list[str] = []
        if which != "average":
            rows = _pretty_values(self._columns.values())
            for realisation in self._columns:
                preds = ", ".join(
                    f"{n}={v}" for n, v in zip(schema.predictors, realisation.predictors)
                )
                target = ",".join(realisation.target)
                title = f"realisation p={realisation.p}  {preds}  {schema.target}={target}"
                blocks.append(block(title, islice(rows, len(node_cells))))
        if which != "pointwise":
            blocks.append(block("averages", _pretty_values([self._average_columns])))
            blocks.append(f"total information: {float(self.total()):.6g} (base {self.base:g})")
        return "\n\n".join(blocks) + "\n"


def _check_selection(which: str) -> None:
    if which not in ("pointwise", "average", "both"):
        raise ValueError(f"unknown table selection {which!r}")


def _node_dicts(names: Sequence[str], columns: _Columns) -> dict[str, dict[str, float]]:
    return {name: dict(zip(_FIELDS, values)) for name, values in zip(names, zip(*columns))}


class _Texts(dict):
    """Each float's text, rendered the first time the float is looked up.

    Keys compare as floats, so ``0.0`` and ``-0.0`` share one text.
    """

    def __init__(self, render: Callable[[float], str]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, value: float) -> str:
        text = self[value] = self.render(value)
        return text


def _row_texts(
    tables: Collection[_Columns], render: Callable[[float], str], sep: str
) -> Iterator[str]:
    """The five values of each node of each table, rendered and joined by ``sep``.

    Each field is read in one pass over all the tables, and each distinct
    value is rendered once.  The texts are made as they are read.
    """
    text = _Texts(render).__getitem__
    fields = [map(text, chain.from_iterable([t[k] for t in tables])) for k in range(5)]
    return map(sep.join, zip(*fields))


def _csv_values(tables: Collection[_Columns]) -> Iterator[str]:
    # Adding 0.0 turns -0.0 into 0.0, so a negative zero prints as "0".
    return _row_texts(tables, lambda x: "%.12g" % (x + 0.0), ",")


def _pretty_values(tables: Collection[_Columns]) -> Iterator[str]:
    return _row_texts(tables, lambda x: f"{x + 0.0:>12.6g}", "")


# The fields in sorted order, which is how ``json`` writes a node's keys,
# and the columns they sit in.
_JSON_FIELDS = tuple(sorted(_FIELDS))
_JSON_COLUMNS = tuple(map(_FIELDS.index, _JSON_FIELDS))
# The bits of -0.0, read as a signed 64-bit integer.
_NEGATIVE_ZERO_BITS = -(1 << 63)


def _dumps(payload: object, depth: int) -> str:
    """``json.dumps`` text of ``payload`` as it appears nested ``depth`` deep."""
    return json.dumps(payload, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _fill(text: str, key: str, depth: int, value: str) -> str:
    """Put ``value`` in place of the ``null`` under ``key`` of the object at ``depth``.

    JSON strings never hold a raw newline, so the pattern only matches a key.
    """
    line = "\n" + "  " * (depth + 1) + json.dumps(key) + ": "
    return text.replace(line + "null", line + value, 1)


def _node_map_template(names: Sequence[str], order: Sequence[int], depth: int) -> str:
    """A node -> row object nested ``depth`` deep, with ``%s`` for each value's text."""
    outer = "\n" + "  " * (depth + 1)
    inner = outer + "  "
    fields = ",".join(inner + json.dumps(f) + ": %s" for f in _JSON_FIELDS)
    entries = [
        outer + json.dumps(names[j]).replace("%", "%%") + ": {" + fields + outer + "}"
        for j in order
    ]
    return "{" + ",".join(entries) + "\n" + "  " * depth + "}"


def _json_texts() -> Callable[[_Columns, Sequence[int]], tuple[str, ...]]:
    """A function from a table and node order to its values' texts in template order.

    Nodes follow ``order`` and fields their names.  The texts are
    ``repr``, rendered once per distinct value over all the tables the
    function is given.
    """
    # Both zeros share the memo's text for 0.0; -0.0 is found by its bits.
    text = _Texts(repr)
    text[0.0] = "0.0"

    def texts(columns: _Columns, order: Sequence[int]) -> tuple[str, ...]:
        rows = list(zip(*map(columns.__getitem__, _JSON_COLUMNS)))
        values = list(chain.from_iterable(map(rows.__getitem__, order)))
        out = list(map(text.__getitem__, values))
        bits = array("q", array("d", values).tobytes())
        at = -1
        for _ in range(bits.count(_NEGATIVE_ZERO_BITS)):
            at = bits.index(_NEGATIVE_ZERO_BITS, at + 1)
            out[at] = "-0.0"
        return tuple(out)

    return texts


def _csv_cell(value: str) -> str:
    if "," in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def _sweep(
    ranks: Sequence[int],
    surprisal: Sequence[float],
    lattice: Lattice,
    members: Sequence[Callable[[Sequence[int]], tuple[int, ...]]],
) -> tuple[list[float], list[float], list[int]]:
    """Cumulative values, increments and chain positions of one side at one realisation.

    ``ranks[m]`` is the rank of the probability of the source event whose
    predictor bitmask is ``m`` (``ranks[0]`` is unused), and
    ``surprisal[k]`` the surprisal of rank ``k``; rank 0 is the most
    probable.  Bit ``m`` stands for that source in the lattice's closure
    masks.  Equal ranks are equal exact probabilities, so ties stay exact
    and each node's value is the surprisal of its best-ranked member;
    ``members[j]`` picks the ranks of node ``j``'s members.  The chain
    lists the positions the sweep steps through; every other increment
    is an exact ``0.0``.
    """
    node_at = lattice.node_at
    increments = [0.0] * len(lattice.nodes)
    chain = []
    surviving = (1 << len(ranks)) - 2
    previous = 0.0
    order = sorted(range(1, len(ranks)), key=ranks.__getitem__)
    for k, group in groupby(order, ranks.__getitem__):
        value = surprisal[k]
        # The sources left are those at least this surprising: an up-set,
        # hence the closure of one node, which carries the whole step.
        j = node_at[surviving]
        increments[j] = value - previous
        chain.append(j)
        previous = value
        for m in group:
            surviving &= ~(1 << m)
    cumulative = [surprisal[min(pick(ranks))] for pick in members]
    return cumulative, increments, chain


def _side(
    dist: JointDistribution, lattice: Lattice, slots: tuple[int, ...], base: float
) -> Callable[..., tuple[list[float], list[float], list[int]]]:
    """The sweep of one side, conditional on the realised target ``slots``.

    The returned function takes a realisation and its labels at each of
    :func:`source_events`; its node values equal ``rmin_*``'s exactly.
    The ranks come from the distribution's memo
    (:meth:`JointDistribution.ranked_conditionals`), and each distinct
    probability takes one logarithm.  A sweep depends only on its rank
    vector, so each distinct vector is swept once and realisations that
    share it share the returned lists.
    """
    masses, tables = dist.ranked_conditionals(slots)
    surprisal = [-log_of(p, base) for p in masses]
    # ``itemgetter`` of one index returns the item itself, not a tuple, so
    # a one-member node reads its member twice.
    members = [
        itemgetter(*masks) if len(masks) > 1 else itemgetter(masks[0], masks[0])
        for masks in lattice.member_masks
    ]
    swept: dict[tuple[int, ...], tuple[list[float], list[float], list[int]]] = {}

    def evaluate(realisation, labels):
        given = tuple(realisation.target[k] for k in slots)
        ranks = (0, *[table[own + given] for table, own in zip(tables, labels)])
        result = swept.get(ranks)
        if result is None:
            result = swept[ranks] = _sweep(ranks, surprisal, lattice, members)
        return result

    return evaluate


def decompose(
    dist: JointDistribution,
    *,
    given: Sequence[str] = (),
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> AtomTable:
    """Full pointwise decomposition of ``i(s1..sn; t | given)`` plus averages.

    ``given`` names target components to hold fixed (conditional
    decomposition); the decomposed-for target is whatever remains.  In
    rational input mode, increments within 1e-12 of zero are reported as
    exact zeros.
    """
    validate_base(base)
    schema = dist.schema
    given = tuple(given)
    held = schema.component_slots(given)
    target_components = tuple(
        name for k, name in enumerate(schema.component_names) if k not in held
    )
    if not target_components:
        raise SchemaError("conditioning on every target component leaves nothing to decompose")
    lattice = lattice_for(dist.n, max_predictors)
    clamp = dist.mode == "rational"
    # Specificity conditions on the held components, ambiguity on every one.
    plus_side = _side(dist, lattice, held, base)
    minus_side = _side(dist, lattice, schema.component_slots(), base)
    events = source_events(dist.n)
    support = dist.support
    size = len(lattice.nodes)
    columns: dict[Realisation, _Columns] = {}
    # Every increment off the two chains is an exact 0.0, so the
    # arithmetic below touches only chain positions.
    touched: set[int] = set()
    for realisation in support:
        labels = [realisation.source_labels(a) for a in events]
        r_plus, pi_plus, plus_chain = plus_side(realisation, labels)
        r_minus, pi_minus, minus_chain = minus_side(realisation, labels)
        if clamp:
            pi_plus = _clamped(pi_plus, plus_chain)
            pi_minus = _clamped(pi_minus, minus_chain)
        union = {*plus_chain, *minus_chain}
        pi = [0.0] * size
        for j in union:
            pi[j] = pi_plus[j] - pi_minus[j]
        if clamp:
            pi = _clamped(pi, union)
        touched |= union
        columns[realisation] = (r_plus, r_minus, pi_plus, pi_minus, pi)

    weights = [float(r.p) for r in support]
    rows = list(columns.values())
    averages = []
    # r_plus and r_minus are dense; the increment fields are 0.0 at every
    # node no chain touched.
    for k, positions in enumerate([range(size)] * 2 + [touched] * 3):
        field = [row[k] for row in rows]
        average = [0.0] * size
        for j in positions:
            average[j] = math.fsum(map(mul, weights, [values[j] for values in field]))
        averages.append(average)
    if clamp:
        averages = [_clamped(values, range(size)) for values in averages]
    return AtomTable(dist, lattice, target_components, given, base, columns, tuple(averages))


def _clamped(values: list[float], positions: Iterable[int]) -> list[float]:
    """``values`` with each magnitude below :data:`ZERO_CLAMP` at ``positions`` an exact zero.

    Returns ``values`` itself when no value changes, else a changed copy,
    so a list that realisations share is never written to.
    """
    small = [j for j in positions if -ZERO_CLAMP < values[j] < ZERO_CLAMP]
    if small:
        values = values.copy()
        for j in small:
            values[j] = 0.0
    return values


@dataclass(frozen=True)
class ChainRuleReport:
    """Residuals of the target chain rule for one component ordering."""

    order: tuple[str, ...]
    residuals: Mapping[tuple[Realisation, LatticeNode], float]
    max_abs_residual: float

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_abs_residual <= tol


def target_chain_rule_report(
    dist: JointDistribution,
    order: Sequence[str],
    *,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> ChainRuleReport:
    """Check ``r(node -> joint target) = sum of conditional r`` in ``order``.

    Evaluates every lattice node at every support row: the redundancy about
    the joint of the listed components must equal the telescoping sum of
    conditional redundancies, for this and any other ordering.
    """
    validate_base(base)
    order = tuple(order)
    prefix_slots = [dist.schema.component_slots(order[:k]) for k in range(len(order) + 1)]
    if not order:
        raise SchemaError("the chain rule needs at least one target component")
    lattice = lattice_for(dist.n, max_predictors)
    # Node values conditioned on each prefix of ``order``: the redundancy
    # towards component k given the earlier ones is prefix k minus prefix
    # k + 1, and towards the joint it is the empty prefix minus the whole.
    sides = [_side(dist, lattice, slots, base) for slots in prefix_slots]
    events = source_events(dist.n)
    residuals: dict[tuple[Realisation, LatticeNode], float] = {}
    worst = 0.0
    for realisation in dist.support:
        labels = [realisation.source_labels(a) for a in events]
        prefixes = [side(realisation, labels)[0] for side in sides]
        for j, node in enumerate(lattice.nodes):
            values = [prefix[j] for prefix in prefixes]
            parts = (a - b for a, b in zip(values, values[1:]))
            residual = (values[0] - values[-1]) - math.fsum(parts)
            residuals[(realisation, node)] = residual
            worst = max(worst, abs(residual))
    return ChainRuleReport(order, MappingProxyType(residuals), worst)


@dataclass(frozen=True)
class CoarseningReport:
    """Residuals of two-event target coarsening at each realisation."""

    residuals: Mapping[tuple[Realisation, LatticeNode], float]
    max_abs_residual: float

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_abs_residual <= tol


def coarsening_invariance_report(
    dist: JointDistribution,
    *,
    base: float = 2.0,
    max_predictors: int = DEFAULT_MAX_PREDICTORS,
) -> CoarseningReport:
    """Check that both node redundancies survive the two-event coarsening.

    For each support row the target is collapsed to "this event or not"
    and every node's specificity and ambiguity redundancies are recomputed
    on the coarsened distribution.  The worst absolute difference is
    reported; the specificity side cannot move at all (the predictor
    marginal is untouched) and the ambiguity side conditions on an event
    of identical mass.  Rows that share a target event share one
    coarsened distribution, and so its marginal tables.
    """
    validate_base(base)
    if dist.schema.target is None:
        raise SchemaError("this distribution has no target to coarsen")
    lattice = lattice_for(dist.n, max_predictors)

    def sides(d: JointDistribution) -> tuple:
        return _side(d, lattice, (), base), _side(d, lattice, d.schema.component_slots(), base)

    fine = sides(dist)
    events = source_events(dist.n)
    coarsened = {}
    for event in dict.fromkeys(row.target for row in dist.support):
        coarse = dist.coarsen_target_to_two_events(event)
        coarsened[event] = (coarse, sides(coarse))
    residuals: dict[tuple[Realisation, LatticeNode], float] = {}
    worst = 0.0
    for realisation in dist.support:
        coarse, coarse_sides = coarsened[realisation.target]
        coarse_real = coarse.realisation(realisation.predictors, ",".join(realisation.target))
        labels = [realisation.source_labels(a) for a in events]
        plus, minus = (side(realisation, labels)[0] for side in fine)
        coarse_plus, coarse_minus = (side(coarse_real, labels)[0] for side in coarse_sides)
        for j, node in enumerate(lattice.nodes):
            residual = max(abs(plus[j] - coarse_plus[j]), abs(minus[j] - coarse_minus[j]))
            residuals[(realisation, node)] = residual
            worst = max(worst, residual)
    return CoarseningReport(MappingProxyType(residuals), worst)
