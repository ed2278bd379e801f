"""The decomposition engine: node values, increments, reports, serialisation."""

import csv
import io
import json
import math
from fractions import Fraction
from itertools import product

import pytest

from specamb import decomposition
from specamb.corpus import build
from specamb.decomposition import (
    coarsening_invariance_report,
    decompose,
    node_redundancy,
    rmin_ambiguity,
    rmin_specificity,
    target_chain_rule_report,
)
from specamb.distribution import (
    JointDistribution,
    MassError,
    Realisation,
    SchemaError,
    SourceEvent,
    loads_json,
)
from specamb.lattice import LatticeNode
from specamb.measures import mutual_information

BOTTOM = LatticeNode.of((1,), (2,))
TOP = LatticeNode.of((1, 2))


class TestNodeValues:
    def test_rmin_takes_minimum_over_members(self):
        dist = build("pwunq")
        real = dist.realisation(("0", "1"), ("1",))
        assert rmin_specificity(dist, BOTTOM, real) == 1.0
        assert rmin_specificity(dist, [SourceEvent.of(2)], real) == 2.0

    def test_rmin_accepts_plain_collections(self):
        dist = build("xor")
        real = dist.support[0]
        events = [SourceEvent.of(1), SourceEvent.of(2)]
        assert rmin_specificity(dist, events, real) == rmin_specificity(
            dist, BOTTOM, real
        )

    def test_rmin_ignores_added_superset(self):
        dist = build("and")
        real = dist.realisation(("0", "0"), ("0",))
        padded = [SourceEvent.of(1), SourceEvent.of(1, 2)]
        assert rmin_ambiguity(dist, padded, real) == rmin_ambiguity(
            dist, [SourceEvent.of(1)], real
        )

    def test_rmin_rejects_empty_collection(self):
        dist = build("xor")
        with pytest.raises(SchemaError):
            rmin_specificity(dist, [], dist.support[0])

    def test_node_redundancy_is_difference(self):
        dist = build("and")
        real = dist.realisation(("1", "1"), ("1",))
        value = node_redundancy(dist, BOTTOM, real)
        assert value == rmin_specificity(dist, BOTTOM, real) - rmin_ambiguity(
            dist, BOTTOM, real
        )

    def test_conditional_forms(self):
        dist = build("tbc")
        real = dist.realisation(("0", "1"), ("0", "1", "1"))
        assert rmin_specificity(dist, BOTTOM, real, given=("t1",)) == 0.0
        assert rmin_ambiguity(dist, BOTTOM, real, components=("t1",)) == 0.0

    def test_unknown_component_rejected(self):
        dist = build("tbc")
        with pytest.raises(SchemaError):
            rmin_ambiguity(dist, BOTTOM, dist.support[0], components=("nope",))

    def test_realisation_outside_the_support_rejected(self):
        dist = build("xor")
        stranger = Realisation(("0", "7"), ("1",), Fraction(1, 4))
        with pytest.raises(MassError):
            rmin_specificity(dist, BOTTOM, stranger)
        with pytest.raises(MassError):
            rmin_ambiguity(dist, [SourceEvent.of(2)], stranger)


class TestDecompose:
    def test_parity_pointwise_rows(self):
        table = decompose(build("xor"))
        for rows in table.pointwise.values():
            assert rows[BOTTOM].r_plus == 1.0
            assert rows[BOTTOM].r_minus == 1.0
            assert rows[TOP].pi_plus == 1.0
            assert rows[TOP].pi_minus == 0.0
            assert rows[TOP].pi == 1.0

    def test_pointwise_sums_match_joint_surprisals(self):
        table = decompose(build("xor"))
        for realisation in table.pointwise:
            plus, minus = table.pointwise_sums(realisation)
            assert plus == 2.0
            assert minus == 1.0

    def test_total_equals_mutual_information(self):
        for name in ("xor", "pwunq", "rdnerr", "unq", "and", "tbc"):
            dist = build(name)
            table = decompose(dist)
            assert float(table.total()) == pytest.approx(
                float(mutual_information(dist)), abs=1e-12
            )

    def test_rational_zeros_are_exact(self):
        table = decompose(build("tbc"))
        for rows in table.pointwise.values():
            for row in rows.values():
                assert row.pi_minus == 0.0
                assert not str(row.pi_minus).startswith("-")

    def test_each_distinct_rank_vector_is_swept_once(self, monkeypatch):
        # A full-support binary n = 4 input whose weights 1..32 give the 16
        # predictor events distinct masses: the specificity side has one
        # rank vector per predictor event (16), the ambiguity side one per
        # row (32), so 48 sweeps serve the 64 realisation-sides.
        cells = list(product("01", repeat=5))
        total = len(cells) * (len(cells) + 1) // 2
        dist = JointDistribution.from_rows(
            [(Fraction(k, total), cell[:4], cell[4]) for k, cell in enumerate(cells, 1)],
            predictors=("s1", "s2", "s3", "s4"),
            target="t",
        )
        sweep = decomposition._sweep
        calls = []

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(decomposition, "_sweep", counted)
        table = decompose(dist)
        assert len(calls) == 48
        # Rows that differ only in the target share their specificity lists.
        first, second = dist.support[:2]
        assert first.predictors == second.predictors
        assert table.column("r_plus")[first] is table.column("r_plus")[second]
        assert table.column("r_minus")[first] is not table.column("r_minus")[second]

    def test_lattice_cap_guard(self):
        rows = [("1/32", tuple(f"{b:05b}"), f"{b % 2}") for b in range(32)]
        dist = JointDistribution.from_rows(
            rows, predictors=tuple(f"s{i}" for i in range(1, 6)), target="t"
        )
        with pytest.raises(SchemaError):
            decompose(dist)

    def test_base_conversion(self):
        nats = decompose(build("xor"), base=math.e)
        bits = decompose(build("xor"))
        for node in bits.nodes:
            assert nats.averages[node].pi == pytest.approx(
                bits.averages[node].pi * math.log(2), abs=1e-12
            )

    def test_decimal_mode_close_to_rational(self):
        rows = [
            ("0.25", ("0", "0"), "0"),
            ("0.25", ("0", "1"), "1"),
            ("0.25", ("1", "0"), "1"),
            ("0.25", ("1", "1"), "0"),
        ]
        dist = JointDistribution.from_rows(
            rows, predictors=("s1", "s2"), target="t", mode="decimal"
        )
        table = decompose(dist)
        assert table.averages[TOP].pi == pytest.approx(1.0, abs=1e-12)


class TestConditionalDecomposition:
    def test_given_component_shrinks_totals(self):
        dist = build("tbc")
        table = decompose(dist, given=("t1",))
        for realisation in table.pointwise:
            plus, minus = table.pointwise_sums(realisation)
            assert plus == 1.0
            assert minus == 0.0

    def test_given_all_components_leaves_nothing(self):
        dist = build("tbc")
        table = decompose(dist, given=("t1", "t2"))
        assert float(table.total()) == pytest.approx(0.0, abs=1e-12)

    def test_unknown_given_component_rejected(self):
        with pytest.raises(SchemaError):
            decompose(build("tbc"), given=("t9",))


class TestAtomTableAccessors:
    def test_bivariate_atoms_average(self):
        atoms = decompose(build("unq")).bivariate_atoms()
        assert atoms["R"].pi == 1.0
        assert atoms["U2"].pi == -1.0

    def test_bivariate_atoms_pointwise(self):
        table = decompose(build("xor"))
        real = build("xor").realisation(("0", "0"), ("0",))
        atoms = table.bivariate_atoms(real)
        assert atoms["C"].pi == 1.0

    def test_bivariate_atoms_need_two_predictors(self):
        with pytest.raises(SchemaError):
            decompose(build("tbep")).bivariate_atoms()


class TestSerialisation:
    def test_csv_golden_average_block(self):
        text = decompose(build("xor")).to_csv("average")
        assert text == (
            "node,atom,r_plus,r_minus,pi_plus,pi_minus,pi\n"
            "{1}{2},R,1,1,1,1,0\n"
            "{1},U1,1,1,0,0,0\n"
            "{2},U2,1,1,0,0,0\n"
            "{12},C,2,1,1,0,1\n"
        )

    def test_csv_pointwise_block_layout(self):
        text = decompose(build("tbc")).to_csv("pointwise")
        lines = text.strip().split("\n")
        assert lines[0] == "p,s1,s2,\"t1,t2,t3\",node,atom,r_plus,r_minus,pi_plus,pi_minus,pi"
        assert lines[1] == "1/4,0,0,\"0,0,0\",{1}{2},R,1,0,1,0,1"
        assert len(lines) == 1 + 4 * 4

    def test_csv_with_carriage_returns_reads_back(self):
        # RFC 4180: a cell holding a carriage return is quoted, like one
        # holding a line feed, so a CSV reader sees the rows written.
        text = json.dumps({
            "schema": {"predictors": ["s\r1", "s2"], "target": "t"},
            "mass": [
                {"outcome": ["a\rb", "0", "0"], "p": "1/2"},
                {"outcome": ["c", "1", "1"], "p": "1/2"},
            ],
        })
        table = decompose(loads_json(text))
        rows = list(csv.reader(io.StringIO(table.to_csv(), newline="")))
        pointwise, blank, averages = rows[:9], rows[9], rows[10:]
        assert pointwise[0][:3] == ["p", "s\r1", "s2"]
        assert [row[1] for row in pointwise[1:]] == ["a\rb"] * 4 + ["c"] * 4
        assert blank == []
        assert len(averages) == 1 + 4
        assert all(len(row) == 11 for row in pointwise)

    def test_csv_which_validation(self):
        with pytest.raises(ValueError):
            decompose(build("xor")).to_csv("everything")

    @pytest.mark.parametrize("writer", ["to_json", "to_pretty"])
    def test_other_writers_validate_which(self, writer):
        with pytest.raises(ValueError, match="unknown table selection 'everything'"):
            getattr(decompose(build("xor")), writer)("everything")

    def test_json_dict_structure(self):
        payload = decompose(build("xor")).to_json_dict()
        assert payload["nodes"] == ["{1}{2}", "{1}", "{2}", "{12}"]
        assert payload["atom_names"]["{12}"] == "C"
        assert payload["total_pi"] == pytest.approx(1.0, abs=1e-12)
        assert len(payload["pointwise"]) == 4
        assert payload["averages"]["{12}"]["pi"] == pytest.approx(1.0)


class TestChainRuleReport:
    @pytest.mark.parametrize("order", [("t1", "t3"), ("t3", "t1"), ("t1", "t2", "t3")])
    def test_residuals_vanish_on_parity_composite(self, order):
        report = target_chain_rule_report(build("tbc"), order)
        assert report.max_abs_residual == 0.0
        assert report.ok()

    def test_single_component_chain_is_trivial(self):
        report = target_chain_rule_report(build("tbc"), ("t1",))
        assert report.max_abs_residual == 0.0

    def test_residuals_cover_every_node_and_row(self):
        report = target_chain_rule_report(build("tbc"), ("t1", "t2"))
        assert len(report.residuals) == 4 * 4

    def test_scalar_target_rejected(self):
        with pytest.raises(SchemaError):
            target_chain_rule_report(build("xor"), ("t1", "t2"))


class TestCoarseningReport:
    @pytest.mark.parametrize("name", ["xor", "and", "rdnerr", "tbc"])
    def test_invariance_is_exact_on_corpus(self, name):
        report = coarsening_invariance_report(build(name))
        assert report.max_abs_residual == 0.0
        assert report.ok()

    def test_report_covers_all_rows(self):
        report = coarsening_invariance_report(build("and"))
        assert len(report.residuals) == 4 * 4


class TestDegenerateCases:
    def test_single_predictor_reduces_to_self_redundancy(self):
        rows = [("1/2", ("0",), "0"), ("1/2", ("1",), "1")]
        dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        table = decompose(dist)
        only = LatticeNode.of((1,))
        assert table.nodes == (only,)
        assert table.averages[only].pi == 1.0

    def test_deterministic_target_has_zero_ambiguity_everywhere(self):
        table = decompose(build("tbc"))
        for rows in table.pointwise.values():
            assert all(row.r_minus == 0.0 for row in rows.values())

    def test_uninformative_predictors(self):
        rows = [
            ("1/4", ("0", "0"), "0"),
            ("1/4", ("0", "1"), "1"),
            ("1/4", ("1", "0"), "0"),
            ("1/4", ("1", "1"), "1"),
        ]
        dist = JointDistribution.from_rows(rows, predictors=("s1", "s2"), target="t")
        table = decompose(dist)
        assert float(table.total()) == pytest.approx(
            float(mutual_information(dist)), abs=1e-12
        )
