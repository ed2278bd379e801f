"""Ingestion, validation, and transform behaviour of joint distributions."""

import warnings
from fractions import Fraction

import pytest

from specamb.corpus import CORPUS_NAMES, build
from specamb.distribution import (
    DuplicateRowWarning,
    FormatError,
    JointDistribution,
    MassError,
    Realisation,
    SchemaError,
    SourceEvent,
    ZeroMassRowWarning,
    dumps_json,
    dumps_tsv,
    load_distribution,
    loads_json,
    loads_tsv,
)

XOR_ROWS = [
    ("1/4", ("0", "0"), "0"),
    ("1/4", ("0", "1"), "1"),
    ("1/4", ("1", "0"), "1"),
    ("1/4", ("1", "1"), "0"),
]


def xor() -> JointDistribution:
    return JointDistribution.from_rows(XOR_ROWS, predictors=("s1", "s2"), target="t")


class TestSourceEvent:
    def test_of_sorts_and_dedups_indices(self):
        assert SourceEvent.of(2, 1, 2).indices == (1, 2)

    def test_str_concatenates_indices(self):
        assert str(SourceEvent.of(1, 3)) == "13"

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            SourceEvent.of()

    def test_constructor_rejects_unsorted_indices(self):
        with pytest.raises(SchemaError):
            SourceEvent((1, 1))
        with pytest.raises(SchemaError):
            SourceEvent((2, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(SchemaError):
            SourceEvent.of(0, 1)

    def test_subset_order(self):
        assert SourceEvent.of(1).issubset(SourceEvent.of(1, 2))
        assert not SourceEvent.of(1, 3).issubset(SourceEvent.of(1, 2))


class TestFromRows:
    def test_rational_mode_and_exact_masses(self):
        dist = xor()
        assert dist.mode == "rational"
        assert dist.probability({"s1": "0", "s2": "0", "t": "0"}) == Fraction(1, 4)

    def test_decimal_mode_tolerates_rounding(self):
        rows = [("0.5", ("a",), "x"), ("0.49999999995", ("b",), "x")]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", mode="decimal"
        )
        assert dist.mode == "decimal"
        assert dist.probability({"s": "a"}) == Fraction(1, 2)
        with pytest.raises(MassError):
            JointDistribution.from_rows(rows, predictors=("s",), target="t")

    def test_tsv_loader_detects_decimal_tokens(self):
        dist = loads_tsv("0.25\t0\t0\n0.75\t1\t1\n")
        assert dist.mode == "decimal"

    def test_rational_total_must_be_one(self):
        rows = [("1/4", ("0",), "0"), ("1/4", ("1",), "1")]
        with pytest.raises(MassError):
            JointDistribution.from_rows(rows, predictors=("s",), target="t")

    def test_decimal_total_must_be_close(self):
        rows = [("0.5", ("0",), "0"), ("0.4999", ("1",), "1")]
        with pytest.raises(MassError):
            JointDistribution.from_rows(rows, predictors=("s",), target="t")

    def test_duplicate_rows_merge_with_warning(self):
        rows = [("1/4", ("0",), "0"), ("1/4", ("0",), "0"), ("1/2", ("1",), "1")]
        with pytest.warns(DuplicateRowWarning):
            dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        assert dist.probability({"s": "0"}) == Fraction(1, 2)

    def test_zero_rows_drop_with_warning(self):
        rows = [("0", ("0",), "0"), ("1", ("1",), "1")]
        with pytest.warns(ZeroMassRowWarning):
            dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        assert len(dist.support) == 1

    def test_negative_mass_rejected(self):
        rows = [("-1/4", ("0",), "0"), ("5/4", ("1",), "1")]
        with pytest.raises(MassError):
            JointDistribution.from_rows(rows, predictors=("s",), target="t")

    def test_first_appearance_alphabet_order(self):
        rows = [("1/2", ("z",), "b"), ("1/2", ("a",), "a")]
        dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        assert dist.schema.predictor_alphabets[0] == ("z", "a")
        assert dist.schema.target_alphabet == (("b",), ("a",))

    def test_component_arity_enforced(self):
        rows = [("1/2", ("0",), ("0", "0")), ("1/2", ("1",), ("1",))]
        with pytest.raises(SchemaError):
            JointDistribution.from_rows(
                rows, predictors=("s",), target="t", target_components=("t1", "t2")
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            JointDistribution.from_rows(
                [("1", ("0", "0"), "0")], predictors=("s", "s"), target="t"
            )


    def test_many_components_store_only_observed_events(self):
        # The product of 24 binary alphabets would hold 2**24 events.
        rows = [("1/2", ("0",), ("0",) * 24), ("1/2", ("1",), ("1",) * 24)]
        names = tuple(f"c{k}" for k in range(24))
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=names
        )
        assert dist.schema.target_alphabet == (("0",) * 24, ("1",) * 24)
        assert dist.probability({"c7": "1"}) == Fraction(1, 2)
        assert dist.probability({"c0": "0", "c23": "1"}) == Fraction(0)

    def test_target_event_checked_per_component(self):
        rows = [("1/2", ("0",), ("0", "1")), ("1/2", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        # ("0", "0") was never observed but each label is in its alphabet.
        mass = {(("0",), ("0", "0")): Fraction(1, 2), (("1",), ("1", "0")): Fraction(1, 2)}
        assert JointDistribution(dist.schema, mass).probability({"t2": "0"}) == 1
        with pytest.raises(SchemaError):
            JointDistribution(dist.schema, {(("0",), ("0", "2")): Fraction(1)})


class TestIngestChecks:
    # Each row is checked once: by the distribution if it is kept, by
    # ingest if it is dropped for zero mass.
    def test_empty_label_rejected_in_tsv(self):
        for text in ("1/2\t\t0\n1/2\t1\t1\n", "1/2\t0\t\n1/2\t1\t1\n",
                     "1/2\t0\t0,\n1/2\t1\t1,1\n", "0\t\t0\n1\t1\t1\n"):
            with pytest.raises(FormatError):
                loads_tsv(text)

    def test_empty_label_rejected_in_json(self):
        for first, second in (('["", "0"]', '["1", "1"]'), ('["0", ""]', '["1", "1"]'),
                              ('["0", ["0", ""]]', '["1", ["1", "1"]]')):
            text = (
                f'{{"mass": [{{"outcome": {first}, "p": "1/2"}},'
                f' {{"outcome": {second}, "p": "1/2"}}]}}'
            )
            with pytest.raises(FormatError):
                loads_json(text)

    @pytest.mark.parametrize(
        "rows",
        [
            [("1/2", ("0",), "0"), ("1/2", ("1", "0"), "1")],
            [("1/2", ("0", "0"), "0"), ("1/2", ("1",), "1")],
            [("1", ("0",), "0"), ("0", ("1", "0"), "1")],
        ],
    )
    def test_wrong_arity_rejected(self, rows):
        with pytest.raises(SchemaError):
            JointDistribution.from_rows(rows, target="t")

    def test_wrong_arity_rejected_in_json(self):
        text = (
            '{"mass": [{"outcome": ["0", "0", "1"], "p": "1/2"},'
            ' {"outcome": ["1", "0"], "p": "1/2"}]}'
        )
        with pytest.raises(SchemaError):
            loads_json(text)

    def test_negative_merged_mass_rejected(self):
        rows = [("1/4", ("0",), "0"), ("-1/2", ("0",), "0"), ("5/4", ("1",), "1")]
        with pytest.warns(DuplicateRowWarning), pytest.raises(MassError):
            JointDistribution.from_rows(rows, predictors=("s",), target="t")

    def test_warning_texts_count_rows(self):
        rows = [
            ("1/4", ("a",), "0"),
            ("0", ("a",), "0"),  # a zero row duplicating a kept row
            ("1/4", ("a",), "0"),
            ("1/4", ("b",), "1"),
            ("1/4", ("b",), "1"),
            ("1/7", ("c",), "0"),
            ("-1/7", ("c",), "0"),  # cancels the row above
            ("0", ("d",), "1"),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        assert [(w.category, str(w.message)) for w in caught] == [
            (DuplicateRowWarning, "summed 3 duplicate outcome row(s)"),
            (ZeroMassRowWarning, "dropped 3 zero-probability row(s)"),
        ]
        assert dist.schema.predictor_alphabets == (("a", "b"),)
        assert dist.probability({"s": "a"}) == Fraction(1, 2)

    def test_predictor_label_checked_against_alphabet(self):
        dist = JointDistribution.from_rows(
            [("1/2", ("0",), "0"), ("1/2", ("1",), "1")], predictors=("s",), target="t"
        )
        with pytest.raises(SchemaError):
            JointDistribution(dist.schema, {(("zz",), ("0",)): Fraction(1)})

    @pytest.mark.parametrize("text", ["1e309\t0\t0\n", "0.5\t0\t0\n1e309\t1\t1\n"])
    def test_decimal_total_beyond_float_range(self, text):
        with pytest.raises(MassError):
            loads_tsv(text)

    def test_json_decimal_total_beyond_float_range(self):
        with pytest.raises(MassError):
            loads_json('{"mass": [{"outcome": ["0", "0"], "p": 1e400}]}')

    @pytest.mark.parametrize(
        "schema",
        [
            '{"target": 5}',
            '{"target": null}',
            '{"predictors": [1]}',
            '{"predictors": "s"}',
            '{"target_components": "ab"}',
        ],
    )
    def test_json_schema_types_checked(self, schema):
        text = f'{{"schema": {schema}, "mass": [{{"outcome": ["0", "0,1"], "p": "1"}}]}}'
        with pytest.raises(FormatError):
            loads_json(text)

    @pytest.mark.parametrize("p", ["true", "false", "null", "[1]"])
    def test_json_mass_types_checked(self, p):
        with pytest.raises(FormatError):
            loads_json(f'{{"mass": [{{"outcome": ["0", "0"], "p": {p}}}]}}')

    def test_boolean_mass_rejected_by_from_rows(self):
        with pytest.raises(FormatError):
            JointDistribution.from_rows([(True, ("0",), "0")], target="t")

    @pytest.mark.parametrize("label", ["null", '{"a": 1}', "true", '["1"]'])
    def test_json_label_types_checked(self, label):
        outcomes = [f'[{label}, "0"]', f'["0", ["1", {label}]]']
        if not label.startswith("["):  # a list there is a composite target event
            outcomes.append(f'["0", {label}]')
        for outcome in outcomes:
            with pytest.raises(FormatError):
                loads_json(f'{{"mass": [{{"outcome": {outcome}, "p": "1"}}]}}')

    def test_json_numbers_stay_labels_and_masses(self):
        dist = loads_json('{"mass": [{"outcome": [1, 2.5], "p": 1}]}')
        assert dist.support[0].outcome == (("1",), ("2.5",))


class TestProbabilityQueries:
    def test_marginal_query_by_name(self):
        dist = xor()
        assert dist.probability({"s1": "0"}) == Fraction(1, 2)
        assert dist.probability({"t": "1"}) == Fraction(1, 2)

    def test_unknown_variable_rejected(self):
        with pytest.raises(SchemaError):
            xor().probability({"nope": "0"})

    def test_unknown_label_is_zero_mass(self):
        assert xor().probability({"s1": "7"}) == Fraction(0)

    def test_bad_projection_rejected(self):
        dist = xor()
        for predictors, components in (((2, 1), ()), ((3,), ()), ((0,), ()), ((1,), (1,))):
            with pytest.raises(SchemaError):
                dist.joint_masses(predictors, components)

    def test_composite_component_query(self):
        rows = [("1/2", ("0",), ("0", "1")), ("1/2", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        assert dist.probability({"t1": "0"}) == Fraction(1, 2)
        assert dist.probability({"t": ("0", "1")}) == Fraction(1, 2)


class TestComponentNames:
    """``VariableSchema.component_slots``: the one resolver of component names."""

    def composite(self) -> JointDistribution:
        rows = [("1/2", ("0",), ("0", "1", "0")), ("1/2", ("1",), ("1", "0", "0"))]
        return JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2", "t3")
        )

    def test_names_resolve_to_sorted_slots(self):
        schema = self.composite().schema
        assert schema.component_slots(("t3", "t1")) == (0, 2)
        assert schema.component_slots(()) == ()
        assert schema.component_slots(None) == (0, 1, 2)
        assert schema.component_names == ("t1", "t2", "t3")

    def test_the_two_lists_may_overlap(self):
        schema = self.composite().schema
        assert schema.component_slots(("t2",), given=("t3", "t2")) == (1, 2)
        assert schema.component_slots(None, given=("t1",)) == (0, 1, 2)

    def test_scalar_target_is_slot_zero(self):
        schema = xor().schema
        assert schema.component_slots(("t",)) == (0,)
        assert schema.component_slots() == (0,)
        assert schema.component_names == ("t",)

    @pytest.mark.parametrize(
        "names",
        [("t1", "t1"), ("t9",), ("t",), ("s",)],
        ids=["repeated", "unknown", "target", "predictor"],
    )
    def test_bad_names_raise(self, names):
        schema = self.composite().schema
        with pytest.raises(SchemaError):
            schema.component_slots(names)
        with pytest.raises(SchemaError):
            schema.component_slots((), given=names)

    def test_no_target_has_no_components(self):
        schema = xor().marginal(("s1",)).schema
        assert schema.component_slots(()) == ()
        with pytest.raises(SchemaError):
            schema.component_slots(None)
        with pytest.raises(SchemaError):
            schema.component_slots(("t",))

    def test_resolve_reads_names_into_positions(self):
        schema = self.composite().schema
        assert schema.resolve({"s": "1", "t3": "0"}) == ({1: "1"}, {2: "0"})
        assert schema.resolve({"t": "0,1,0", "t2": "1"}) == ({}, {0: "0", 1: "1", 2: "0"})
        # The target and a component that disagree: a zero-mass event.
        with pytest.raises(MassError, match="'t2' both the label '1' and '0'"):
            schema.resolve({"t": "0,1,0", "t2": "0"})
        with pytest.raises(SchemaError):
            xor().marginal(("s1",)).schema.resolve({"t": "0"})


class TestTransforms:
    def test_marginal_keeps_named_variables(self):
        dist = xor()
        sub = dist.marginal(("s1", "t"))
        assert sub.schema.predictors == ("s1",)
        assert sub.probability({"s1": "0", "t": "0"}) == Fraction(1, 4)

    def test_marginal_may_drop_target(self):
        sub = xor().marginal(("s1", "s2"))
        assert sub.schema.target is None
        assert sub.probability({"s1": "0", "s2": "1"}) == Fraction(1, 4)

    @pytest.mark.parametrize(
        "names", [("s1", "s2", "s1"), ("t1", "t1", "s1")], ids=["predictor", "component"]
    )
    def test_marginal_rejects_a_repeated_name(self, names):
        with pytest.raises(SchemaError, match="repeated"):
            build("tbc").marginal(names)

    def test_marginal_resolves_components_like_component_slots(self):
        dist = build("tbc")
        assert dist.marginal(("t3", "s1", "t1")).schema.target_components == ("t1", "t3")
        assert dist.marginal(("t", "t2")).schema.target_components == ("t1", "t2", "t3")
        with pytest.raises(SchemaError, match="unknown target component 't9'"):
            dist.marginal(("s1", "t9"))
        with pytest.raises(SchemaError, match="unknown variable 't'"):
            xor().marginal(("s1",)).marginal(("s1", "t"))

    def test_marginal_needs_a_variable(self):
        with pytest.raises(SchemaError):
            xor().marginal(())

    def test_coarsen_target_to_two_events(self):
        rows = [("1/3", ("a",), "x"), ("1/3", ("b",), "y"), ("1/3", ("c",), "z")]
        dist = JointDistribution.from_rows(rows, predictors=("s",), target="t")
        coarse = dist.coarsen_target_to_two_events(("x",))
        assert coarse.probability({"t": "x"}) == Fraction(1, 3)
        assert coarse.probability({"t": "~x"}) == Fraction(2, 3)
        assert len(coarse.schema.target_alphabet) == 2

    def test_coarsen_binary_target_keeps_masses(self):
        coarse = xor().coarsen_target_to_two_events(("0",))
        assert coarse.probability({"t": "0"}) == Fraction(1, 2)
        assert coarse.probability({"t": "~0"}) == Fraction(1, 2)

    def test_coarsen_rejects_an_unrealised_event(self):
        dist = build("tbc")
        with pytest.raises(MassError):
            dist.coarsen_target_to_two_events(("1", "1", "1"))
        with pytest.raises(SchemaError):
            dist.coarsen_target_to_two_events(("1", "1"))

    @pytest.mark.parametrize("name", CORPUS_NAMES + ("composite",))
    def test_coarsen_matches_merging_the_relabelled_rows(self, name):
        """Coarsening equals merging its relabelled support rows, silently.

        The reference goes through ``from_rows``, which merges the rows
        that the relabelling makes duplicates (and warns about them); the
        coarsening itself sums them and must warn about nothing.
        """
        if name == "composite":
            rows = [
                ("1/8", ("0", "0"), ("0", "0")), ("1/8", ("0", "0"), ("1", "1")),
                ("1/4", ("0", "1"), ("0", "1")), ("1/8", ("1", "0"), ("1", "0")),
                ("1/8", ("1", "0"), ("0", "0")), ("1/4", ("1", "1"), ("1", "1")),
            ]
            dist = JointDistribution.from_rows(
                rows, predictors=("a", "b"), target="t", target_components=("t1", "t2")
            )
        else:
            dist = build(name)
        for event in dict.fromkeys(row.target for row in dist.support):
            label = ",".join(event)
            relabelled = [
                (row.p, row.predictors, label if row.target == event else f"~{label}")
                for row in dist.support
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = JointDistribution.from_rows(
                    relabelled, predictors=dist.schema.predictors,
                    target=dist.schema.target, mode=dist.mode,
                )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                coarse = dist.coarsen_target_to_two_events(event)
            assert coarse == expected
            assert coarse.schema.target_alphabet == expected.schema.target_alphabet
            assert coarse.schema.predictor_alphabets == expected.schema.predictor_alphabets
            assert list(coarse.mass) == list(expected.mass)

    def test_compose_targets_reorders_components(self):
        rows = [("1/2", ("0",), ("0", "1")), ("1/2", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        swapped = dist.compose_targets(("t2", "t1"))
        assert swapped.schema.target_components == ("t2", "t1")
        assert swapped.probability({"t": ("1", "0")}) == Fraction(1, 2)

    def test_compose_single_component_becomes_scalar(self):
        rows = [("1/2", ("0",), ("0", "1")), ("1/2", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        sub = dist.compose_targets(("t2",))
        assert sub.schema.target == "t2"
        assert sub.schema.target_components is None

    def test_compose_rejects_unknown_component(self):
        with pytest.raises(SchemaError):
            xor().compose_targets(("t9",))

    def test_realisation_lookup(self):
        real = xor().realisation(("0", "1"), ("1",))
        assert isinstance(real, Realisation)
        assert real.p == Fraction(1, 4)

    def test_realisation_requires_support_row(self):
        with pytest.raises(MassError):
            xor().realisation(("0", "0"), ("1",))


class TestTsvFormat:
    def test_header_and_comments(self):
        text = "# masses for a fair coin copy\n#p\ts\tt\n1/2\t0\t0\n1/2\t1\t1\n"
        dist = loads_tsv(text)
        assert dist.schema.predictors == ("s",)
        assert dist.probability({"s": "0", "t": "0"}) == Fraction(1, 2)

    def test_headerless_names_variables_positionally(self):
        dist = loads_tsv("1/2\t0\t0\n1/2\t1\t1\n")
        assert dist.schema.predictors == ("s1",)
        assert dist.schema.target == "t"

    def test_composite_header_declares_components(self):
        text = "#p\ts1\tt1,t2\n1/2\t0\t0,1\n1/2\t1\t1,0\n"
        dist = loads_tsv(text)
        assert dist.schema.target_components == ("t1", "t2")

    def test_headerless_sniffs_composite_arity(self):
        dist = loads_tsv("1/2\t0\t0,1\n1/2\t1\t1,0\n")
        assert dist.schema.target_components == ("t1", "t2")

    def test_ragged_row_rejected(self):
        with pytest.raises(FormatError):
            loads_tsv("1/2\t0\t0\n1/2\t1\n")

    def test_bad_mass_rejected(self):
        with pytest.raises(FormatError):
            loads_tsv("half\t0\t0\n")

    def test_round_trip_scalar(self):
        dist = xor()
        again = loads_tsv(dumps_tsv(dist))
        assert again.mass == dist.mass
        assert again.schema == dist.schema

    def test_round_trip_composite(self):
        rows = [("1/2", ("0",), ("0", "1")), ("1/2", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        again = loads_tsv(dumps_tsv(dist))
        assert again.schema.target_components == ("t1", "t2")
        assert again.mass == dist.mass

    def test_target_free_distribution_is_not_written(self):
        # Written as is, the last predictor would read back as the target.
        with pytest.raises(SchemaError, match="without a target"):
            dumps_tsv(xor().marginal(("s1", "s2")))


class TestJsonFormat:
    def test_decimal_strings_stay_exact(self):
        text = '{"mass": [{"outcome": ["0", "0"], "p": 0.1}, {"outcome": ["1", "1"], "p": 0.9}]}'
        dist = loads_json(text)
        assert dist.probability({"s1": "0"}) == Fraction(1, 10)

    def test_schema_block_names_variables(self):
        text = (
            '{"schema": {"predictors": ["a", "b"], "target": "y"},'
            ' "mass": [{"outcome": ["0", "1", "1"], "p": "1/2"},'
            ' {"outcome": ["1", "0", "0"], "p": "1/2"}]}'
        )
        dist = loads_json(text)
        assert dist.schema.predictors == ("a", "b")
        assert dist.schema.target == "y"

    def test_missing_mass_rejected(self):
        with pytest.raises(FormatError):
            loads_json('{"rows": []}')

    def test_invalid_json_rejected(self):
        with pytest.raises(FormatError):
            loads_json("{not json")

    def test_round_trip_composite(self):
        rows = [("1/3", ("0",), ("0", "1")), ("2/3", ("1",), ("1", "0"))]
        dist = JointDistribution.from_rows(
            rows, predictors=("s",), target="t", target_components=("t1", "t2")
        )
        again = loads_json(dumps_json(dist))
        assert again.mass == dist.mass
        assert again.schema.target_components == ("t1", "t2")

    def test_target_free_distribution_is_not_written(self):
        # ``"target": null`` would not load back.
        with pytest.raises(SchemaError, match="without a target"):
            dumps_json(xor().marginal(("s1", "s2")))


class TestLoadDistribution:
    def test_dispatches_on_format(self):
        assert load_distribution("1\t0\t0\n", "tsv").probability({"t": "0"}) == 1
        payload = '{"mass": [{"outcome": ["0", "0"], "p": "1"}]}'
        assert load_distribution(payload, "json").probability({"t": "0"}) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(FormatError):
            load_distribution("", "xml")
