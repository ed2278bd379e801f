"""Surprisal-level quantities: entropies, specificity, ambiguity, PMI."""

import math
from fractions import Fraction

import pytest

from specamb.decomposition import rmin_ambiguity, rmin_specificity
from specamb.distribution import (
    JointDistribution,
    MassError,
    SchemaError,
    SourceEvent,
)
from specamb.measures import (
    InfoValue,
    ambiguity,
    average,
    log_of,
    mutual_information,
    pointwise_conditional_entropy,
    pointwise_entropy,
    pointwise_mutual_information,
    specificity,
    validate_base,
)

LG3 = math.log2(3)
LG32 = math.log2(3 / 2)


def and_gate() -> JointDistribution:
    rows = [
        ("1/4", ("0", "0"), "0"),
        ("1/4", ("0", "1"), "0"),
        ("1/4", ("1", "0"), "0"),
        ("1/4", ("1", "1"), "1"),
    ]
    return JointDistribution.from_rows(rows, predictors=("s1", "s2"), target="t")


def tbc() -> JointDistribution:
    rows = [
        ("1/4", ("0", "0"), ("0", "0", "0")),
        ("1/4", ("0", "1"), ("0", "1", "1")),
        ("1/4", ("1", "0"), ("1", "0", "1")),
        ("1/4", ("1", "1"), ("1", "1", "0")),
    ]
    return JointDistribution.from_rows(
        rows, predictors=("s1", "s2"), target="t", target_components=("t1", "t2", "t3")
    )


class TestInfoValue:
    def test_float_conversion(self):
        assert float(InfoValue(1.5)) == 1.5

    def test_repr_names_units(self):
        assert "bits" in repr(InfoValue(1.0))

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            validate_base(1.0)

    def test_zero_probability_rejected(self):
        with pytest.raises(MassError):
            log_of(Fraction(0), 2.0)

    def test_log_outside_float_range(self):
        # 1/10**400 rounds to 0.0 as a float and 10**400 overflows one;
        # both logarithms are still finite.
        assert abs(log_of(Fraction(1, 10**400), 2.0) - (-400 * math.log2(10))) <= 1e-9
        assert abs(log_of(Fraction(3, 10**400), 10.0) - (math.log10(3) - 400)) <= 1e-9
        assert abs(log_of(Fraction(10**400, 3), 10.0) - (400 - math.log10(3))) <= 1e-9


class TestEntropies:
    def test_pointwise_entropy_of_predictor_event(self):
        assert float(pointwise_entropy(and_gate(), {"s1": "0"})) == 1.0

    def test_pointwise_entropy_of_joint_event(self):
        assert float(pointwise_entropy(and_gate(), {"s1": "0", "s2": "1"})) == 2.0

    def test_entropy_of_zero_mass_event_rejected(self):
        with pytest.raises(MassError):
            pointwise_entropy(and_gate(), {"s1": "7"})

    def test_conditional_entropy(self):
        value = pointwise_conditional_entropy(
            and_gate(), {"s1": "1"}, {"t": "0"}
        )
        assert float(value) == pytest.approx(LG3, abs=1e-12)

    def test_chain_rule_of_surprisals(self):
        dist = and_gate()
        joint = float(pointwise_entropy(dist, {"s1": "0", "t": "0"}))
        split = float(pointwise_entropy(dist, {"s1": "0"})) + float(
            pointwise_conditional_entropy(dist, {"t": "0"}, {"s1": "0"})
        )
        assert joint == pytest.approx(split, abs=1e-12)


def xor() -> JointDistribution:
    rows = [
        ("1/4", ("0", "0"), "0"),
        ("1/4", ("0", "1"), "1"),
        ("1/4", ("1", "0"), "1"),
        ("1/4", ("1", "1"), "0"),
    ]
    return JointDistribution.from_rows(rows, predictors=("s1", "s2"), target="t")


class TestConflictingLabels:
    # An event that gives a variable another label than the conditioning
    # event does has zero probability, like any zero-mass event.
    @pytest.mark.parametrize(
        "dist, event, given",
        [
            (xor, {"s1": "0"}, {"s1": "1"}),
            (xor, {"t": "0"}, {"t": "1"}),
            (tbc, {"t1": "0"}, {"t": ("1", "0", "1")}),
        ],
        ids=["predictor", "target", "component"],
    )
    def test_conflict_is_a_zero_mass_event(self, dist, event, given):
        with pytest.raises(MassError):
            pointwise_conditional_entropy(dist(), event, given)

    @pytest.mark.parametrize(
        "entropy",
        [
            lambda d: pointwise_entropy(d, {"t": "0,0,0", "t1": "1"}),
            lambda d: d.probability({"t": "0,0,0", "t1": "1"}),
            lambda d: pointwise_conditional_entropy(d, {"t1": "1"}, {"t": "0,0,0"}),
        ],
        ids=["one-dict", "probability", "two-dicts"],
    )
    def test_both_layouts_raise_one_error_naming_the_variable(self, entropy):
        # The same contradicting labels, in one assignment or split over
        # the event and its conditioning, give the same MassError.
        with pytest.raises(MassError) as raised:
            entropy(tbc())
        assert str(raised.value) == (
            "the event gives 't1' both the label '0' and '1', so it has zero probability"
        )

    def test_agreeing_labels_condition_on_nothing_new(self):
        value = pointwise_conditional_entropy(tbc(), {"t1": "1"}, {"t": ("1", "0", "1")})
        assert float(value) == 0.0


SOURCE = SourceEvent.of(1)


class TestNameHandling:
    """The measures resolve target-component names as ``rmin_*`` do."""

    def test_scalar_target_name_is_the_whole_target(self):
        dist = and_gate()
        for real in dist.support:
            default = ambiguity(dist, SOURCE, real)
            assert ambiguity(dist, SOURCE, real, components=("t",)) == default
            assert specificity(dist, SOURCE, real, given_components=("t",)) == default
            assert float(default) == rmin_specificity(dist, [SOURCE], real, given=("t",))
            assert pointwise_mutual_information(
                dist, real, components=("t",)
            ) == pointwise_mutual_information(dist, real)

    @pytest.mark.parametrize(
        "call",
        [
            lambda d, r, names: specificity(d, SOURCE, r, given_components=names),
            lambda d, r, names: ambiguity(d, SOURCE, r, components=names),
            lambda d, r, names: ambiguity(d, SOURCE, r, given_components=names),
            lambda d, r, names: pointwise_mutual_information(d, r, components=names),
            lambda d, r, names: pointwise_mutual_information(d, r, given_components=names),
            lambda d, r, names: rmin_specificity(d, [SOURCE], r, given=names),
            lambda d, r, names: rmin_ambiguity(d, [SOURCE], r, components=names),
        ],
        ids=["spec-given", "amb", "amb-given", "pmi", "pmi-given", "rmin-spec", "rmin-amb"],
    )
    @pytest.mark.parametrize(
        "names", [("t1", "t1"), ("t9",), ("t",)], ids=["repeated", "unknown", "target-name"]
    )
    def test_bad_names_raise(self, call, names):
        dist = tbc()
        with pytest.raises(SchemaError):
            call(dist, dist.support[0], names)

    def test_components_may_overlap_given_components(self):
        dist = tbc()
        for real in dist.support:
            overlapping = ambiguity(
                dist, SOURCE, real, components=("t1", "t2"), given_components=("t2", "t3")
            )
            assert overlapping == ambiguity(dist, SOURCE, real)
            assert float(overlapping) == rmin_ambiguity(
                dist, [SOURCE], real, components=("t1", "t2"), given=("t2", "t3")
            )
            pmi = pointwise_mutual_information(
                dist, real, SOURCE, components=("t1",), given_components=("t1", "t2")
            )
            assert float(pmi) == 0.0


class TestSpecificityAndAmbiguity:
    def test_specificity_is_event_surprisal(self):
        dist = and_gate()
        real = dist.realisation(("1", "0"), ("0",))
        assert float(specificity(dist, SourceEvent.of(1), real)) == 1.0
        assert float(specificity(dist, SourceEvent.of(1, 2), real)) == 2.0

    def test_ambiguity_conditions_on_realised_target(self):
        dist = and_gate()
        real = dist.realisation(("1", "0"), ("0",))
        assert float(ambiguity(dist, SourceEvent.of(1), real)) == pytest.approx(
            LG3, abs=1e-12
        )
        assert float(ambiguity(dist, SourceEvent.of(2), real)) == pytest.approx(
            LG32, abs=1e-12
        )

    def test_conditional_specificity_adds_source_events(self):
        dist = and_gate()
        real = dist.realisation(("0", "0"), ("0",))
        value = specificity(dist, SourceEvent.of(2), real, given_sources=(SourceEvent.of(1),))
        assert float(value) == 1.0

    def test_ambiguity_towards_component_given_component(self):
        dist = tbc()
        real = dist.realisation(("0", "1"), ("0", "1", "1"))
        towards_t1 = ambiguity(dist, SourceEvent.of(2), real, components=("t1",))
        given_t1 = ambiguity(
            dist, SourceEvent.of(2), real, components=("t2",), given_components=("t1",)
        )
        assert float(towards_t1) == 1.0
        assert float(given_t1) == 0.0


class TestPointwiseMutualInformation:
    def test_matches_probability_ratio(self):
        dist = and_gate()
        real = dist.realisation(("1", "1"), ("1",))
        assert float(pointwise_mutual_information(dist, real, SourceEvent.of(1))) == 1.0
        assert float(pointwise_mutual_information(dist, real)) == 2.0

    def test_equals_specificity_minus_ambiguity(self):
        dist = and_gate()
        for real in dist.support:
            for event in (SourceEvent.of(1), SourceEvent.of(2), SourceEvent.of(1, 2)):
                pmi = float(pointwise_mutual_information(dist, real, event))
                parts = float(specificity(dist, event, real)) - float(
                    ambiguity(dist, event, real)
                )
                assert pmi == pytest.approx(parts, abs=1e-12)

    def test_signed_values_appear(self):
        dist = and_gate()
        real = dist.realisation(("1", "0"), ("0",))
        assert float(pointwise_mutual_information(dist, real, SourceEvent.of(1))) < 0

    def test_component_selection(self):
        dist = tbc()
        real = dist.realisation(("0", "1"), ("0", "1", "1"))
        about_t1 = pointwise_mutual_information(dist, real, SourceEvent.of(1), components=("t1",))
        assert float(about_t1) == 1.0


class TestAverages:
    def test_average_weights_by_mass(self):
        dist = and_gate()
        total = average(dist, lambda real: pointwise_mutual_information(dist, real))
        assert float(total) == pytest.approx(2 - 0.75 * LG3, abs=1e-12)

    def test_mutual_information_full_predictor_set(self):
        assert float(mutual_information(and_gate())) == pytest.approx(
            2 - 0.75 * LG3, abs=1e-12
        )

    def test_mutual_information_single_source(self):
        value = mutual_information(and_gate(), SourceEvent.of(1))
        target_entropy = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert float(value) == pytest.approx(target_entropy - 0.5, abs=1e-12)

    def test_base_conversion_halves_bits(self):
        bits = float(mutual_information(and_gate()))
        quarts = float(mutual_information(and_gate(), base=4.0))
        assert quarts == pytest.approx(bits / 2, abs=1e-12)
