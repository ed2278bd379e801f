"""Betting markets: doubling rates, side information, simulation, chains."""

import itertools
import math
from fractions import Fraction

import pytest

from specamb.corpus import build
from specamb.distribution import JointDistribution, MassError, SchemaError
from specamb.kelly import (
    RNG_ALGORITHM,
    RaceMarket,
    accumulator_legs,
    accumulator_log_return,
    optimal_doubling_rate,
    pointwise_return,
    simulate_races,
    value_of_side_information,
)
from specamb.measures import log_of, mutual_information


class TestMarketConstruction:
    def test_fair_book_by_default(self):
        market = RaceMarket(build("xor"))
        assert market.is_fair
        assert market.book_sum() == 1
        assert market.odds[("0",)] == Fraction(2)

    def test_wire_validation(self):
        dist = build("xor")
        with pytest.raises(SchemaError):
            RaceMarket(dist, wire=("s9",))
        with pytest.raises(SchemaError):
            RaceMarket(dist, wire=("s1", "s1"))
        with pytest.raises(SchemaError):
            RaceMarket(dist, wire=("t",))

    def test_target_required(self):
        bare = build("xor").marginal(("s1", "s2"))
        with pytest.raises(SchemaError):
            RaceMarket(bare)

    def test_explicit_odds_checked(self):
        dist = build("unq")
        with pytest.raises(SchemaError):
            RaceMarket(dist, odds={"0": 2})
        with pytest.raises(SchemaError):
            RaceMarket(dist, odds={"0": 2, "1": 2, "7": 2})
        with pytest.raises(MassError):
            RaceMarket(dist, odds={"0": 2, "1": 0})
        with pytest.raises(MassError):
            RaceMarket(dist, odds={"0": 2, "1": "-3"})

    def test_shifted_book_reported_not_forbidden(self):
        market = RaceMarket(build("xor"), odds={"0": 4, "1": 4})
        assert not market.is_fair
        assert market.book_sum() == Fraction(1, 2)

    def test_composite_target_odds_keys(self):
        dist = build("tbc")
        odds = {"0,0,0": 4, "0,1,1": 4, "1,0,1": 4, "1,1,0": 4}
        market = RaceMarket(dist, odds=odds)
        assert market.is_fair
        by_tuple = RaceMarket(dist, odds={("0", "0", "0"): 4, ("0", "1", "1"): 4,
                                          ("1", "0", "1"): 4, ("1", "1", "0"): 4})
        assert by_tuple.odds == market.odds

    def test_bad_arity_odds_key(self):
        with pytest.raises(SchemaError):
            RaceMarket(build("tbc"), odds={"0,0": 4})


class TestMessages:
    def test_mapping_and_tuple_agree(self):
        market = RaceMarket(build("tbc"), wire=("s2", "s1"))
        assert market.message({"s1": "0", "s2": "1"}) == ("1", "0")
        assert market.message(("1", "0")) == ("1", "0")

    def test_message_errors(self):
        market = RaceMarket(build("xor"), wire=("s1",))
        with pytest.raises(SchemaError):
            market.message({"s1": "0", "s2": "0"})
        with pytest.raises(SchemaError):
            market.message({"s2": "0"})
        with pytest.raises(SchemaError):
            market.message(("0", "1"))
        with pytest.raises(MassError):
            market.message(("7",))


class TestDoublingRate:
    def test_fair_odds_rate_is_zero(self):
        assert float(optimal_doubling_rate(RaceMarket(build("xor")))) == 0.0

    def test_doubled_odds_gain_one_bit(self):
        market = RaceMarket(build("xor"), odds={"0": 4, "1": 4})
        assert float(optimal_doubling_rate(market)) == 1.0

    def test_base_conversion(self):
        market = RaceMarket(build("xor"), odds={"0": 4, "1": 4})
        nats = float(optimal_doubling_rate(market, base=math.e))
        assert nats == pytest.approx(math.log(2), abs=1e-12)


class TestSideInformation:
    @pytest.mark.parametrize(
        "wire,want",
        [(("s1",), 1.0), (("s1", "s2"), 2.0)],
    )
    def test_composite_parity_values(self, wire, want):
        market = RaceMarket(build("tbc"), wire=wire)
        assert float(value_of_side_information(market)) == want

    def test_independent_wire_is_worthless(self):
        rows = [
            ("1/4", ("0", "0"), "0"),
            ("1/4", ("0", "1"), "1"),
            ("1/4", ("1", "0"), "0"),
            ("1/4", ("1", "1"), "1"),
        ]
        dist = JointDistribution.from_rows(rows, predictors=("s1", "s2"), target="t")
        market = RaceMarket(dist, wire=("s1",))
        assert float(value_of_side_information(market)) == 0.0

    def test_matches_mutual_information(self):
        for name in ("rdnerr", "and", "unq"):
            dist = build(name)
            market = RaceMarket(dist, wire=("s2",))
            sub = dist.marginal(("s2", "t"))
            assert float(value_of_side_information(market)) == pytest.approx(
                float(mutual_information(sub)), abs=1e-12
            )

    def test_requires_wire_and_fair_odds(self):
        with pytest.raises(SchemaError):
            value_of_side_information(RaceMarket(build("xor")))
        unfair = RaceMarket(build("xor"), wire=("s1",), odds={"0": 4, "1": 4})
        with pytest.raises(MassError):
            value_of_side_information(unfair)


class TestPointwiseReturn:
    def test_noisy_duplicate_returns(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        assert float(pointwise_return(market, ("0",), "0")) == pytest.approx(
            math.log2(Fraction(3, 2)), abs=1e-12
        )
        assert float(pointwise_return(market, ("1",), "0")) == -1.0

    def test_perfect_wire_pays_surprisal(self):
        market = RaceMarket(build("tbc"), wire=("s1", "s2"))
        assert float(pointwise_return(market, ("0", "1"), ("0", "1", "1"))) == 2.0

    def test_zero_probability_pair(self):
        market = RaceMarket(build("unq"), wire=("s1",))
        with pytest.raises(MassError):
            pointwise_return(market, ("0",), "1")

    def test_requires_fair_odds(self):
        market = RaceMarket(build("xor"), wire=("s1",), odds={"0": 4, "1": 4})
        with pytest.raises(MassError):
            pointwise_return(market, ("0",), "0")


class TestSimulation:
    def test_records_rng_and_rates(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        result = simulate_races(market, 1000, 7)
        assert result.rng == RNG_ALGORITHM
        assert result.races == 1000
        assert result.seed == 7
        assert result.analytic_rate == pytest.approx(
            float(value_of_side_information(market)), abs=1e-12
        )
        assert result.empirical_rate == pytest.approx(
            result.final_log_wealth / 1000, abs=1e-15
        )

    def test_deterministic_for_a_seed(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        first = simulate_races(market, 500, 3)
        second = simulate_races(market, 500, 3)
        assert first == second
        third = simulate_races(market, 500, 4)
        assert third.final_log_wealth != first.final_log_wealth

    def test_checkpoint_stride(self):
        market = RaceMarket(build("xor"), wire=("s1",))
        result = simulate_races(market, 250, 0)
        assert len(result.checkpoints) == 125
        assert result.checkpoints[0][0] == 2
        assert result.checkpoints[-1] == (250, result.final_log_wealth)
        short = simulate_races(market, 7, 0)
        assert [race for race, _ in short.checkpoints] == [1, 2, 3, 4, 5, 6, 7]

    def test_wireless_fair_market_never_moves(self):
        result = simulate_races(RaceMarket(build("xor")), 200, 11)
        assert result.final_log_wealth == 0.0
        assert all(value == 0.0 for _, value in result.checkpoints)

    def test_perfect_wire_market_doubles_every_race(self):
        market = RaceMarket(build("tbc"), wire=("s1",))
        result = simulate_races(market, 64, 5)
        assert result.final_log_wealth == 64.0

    def test_empirical_rate_approaches_analytic(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        result = simulate_races(market, 100_000, 1)
        assert abs(result.empirical_rate - result.analytic_rate) < 0.05

    def test_race_count_validated(self):
        with pytest.raises(MassError):
            simulate_races(RaceMarket(build("xor")), 0, 0)

    def test_json_round_trip_shape(self):
        result = simulate_races(RaceMarket(build("xor"), wire=("s1",)), 10, 2)
        payload = result.to_json_dict()
        assert payload["rng"] == RNG_ALGORITHM
        assert payload["checkpoints"][-1] == [10, result.final_log_wealth]


class TestAccumulator:
    def test_legs_follow_declared_order(self):
        market = RaceMarket(build("tbc"), wire=("s1",))
        legs = accumulator_legs(market, ("0",), ("0", "1", "1"))
        assert [float(leg) for leg in legs] == [1.0, 0.0, 0.0]

    def test_legs_for_explicit_order(self):
        market = RaceMarket(build("tbc"), wire=("s1",))
        legs = accumulator_legs(market, ("0",), ("0", "1", "1"), ("t3", "t2", "t1"))
        assert [float(leg) for leg in legs] == [0.0, 1.0, 0.0]

    def test_total_is_order_invariant(self):
        market = RaceMarket(build("tbc"), wire=("s1", "s2"))
        components = ("t1", "t2", "t3")
        totals = {
            float(accumulator_log_return(market, ("1", "0"), ("1", "0", "1"), order))
            for order in itertools.permutations(components)
        }
        assert totals == {2.0}

    def test_total_equals_leg_sum(self):
        market = RaceMarket(build("tbc"), wire=("s2",))
        s, t = ("1",), ("0", "1", "1")
        legs = accumulator_legs(market, s, t, ("t2", "t3", "t1"))
        total = accumulator_log_return(market, s, t, ("t2", "t3", "t1"))
        assert float(total) == pytest.approx(
            math.fsum(float(leg) for leg in legs), abs=1e-12
        )

    def test_scalar_target_is_single_leg(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        legs = accumulator_legs(market, ("1",), "0")
        assert len(legs) == 1
        assert float(legs[0]) == float(pointwise_return(market, ("1",), "0"))
        assert float(accumulator_log_return(market, ("1",), "0")) == float(legs[0])

    def test_scalar_target_order_checked(self):
        market = RaceMarket(build("rdnerr"), wire=("s2",))
        assert float(accumulator_log_return(market, ("1",), "0", ("t",))) == -1.0
        with pytest.raises(SchemaError):
            accumulator_log_return(market, ("1",), "0", ("t1", "t2"))

    def test_order_must_be_permutation(self):
        market = RaceMarket(build("tbc"), wire=("s1",))
        with pytest.raises(SchemaError):
            accumulator_legs(market, ("0",), ("0", "0", "0"), ("t1", "t2"))
        with pytest.raises(SchemaError):
            accumulator_legs(market, ("0",), ("0", "0", "0"), ("t1", "t2", "t2"))

    def test_zero_probability_leg(self):
        market = RaceMarket(build("tbc"), wire=("s1",))
        with pytest.raises(MassError):
            accumulator_log_return(market, ("0",), ("0", "0", "7"))

    def test_requires_fair_odds(self):
        odds = {"0,0,0": 8, "0,1,1": 8, "1,0,1": 8, "1,1,0": 8}
        market = RaceMarket(build("tbc"), wire=("s1",), odds=odds)
        with pytest.raises(MassError):
            accumulator_log_return(market, ("0",), ("0", "0", "0"))

    def test_even_parity_all_orders_agree(self):
        market = RaceMarket(build("tbep"), wire=("s1", "s2"))
        total = {
            round(
                float(
                    accumulator_log_return(
                        market, ("0", "1"), ("0", "1", "1"), order
                    )
                ),
                12,
            )
            for order in itertools.permutations(("t1", "t2", "t3"))
        }
        assert total == {2.0}

    def test_legs_with_wire_out_of_predictor_order(self):
        # Each leg is the conditional PMI p(s, t_k | t_<k) / (p(s | t_<k) p(t_k | t_<k)),
        # with the message s read in wire order, not predictor order.
        dist = build("tbep")
        wire = ("s3", "s1")
        market = RaceMarket(dist, wire=wire)
        names = dist.schema.target_components
        for row in dist.support:
            msg = tuple(row.predictors[dist.schema.predictors.index(name)] for name in wire)
            for order in itertools.permutations(names):
                legs = accumulator_legs(market, msg, row.target, order)
                given: dict = {}
                expected = []
                for name in order:
                    before = dict(given)
                    given[name] = row.target[names.index(name)]
                    s = dict(zip(wire, msg))
                    ratio = (dist.probability({**s, **given}) * dist.probability(before)) / (
                        dist.probability({**s, **before}) * dist.probability(given)
                    )
                    expected.append(log_of(ratio, 2.0))
                assert [float(leg) for leg in legs] == expected
            s, t = dict(zip(wire, msg)), {"t": row.target}
            ratio = dist.probability({**s, **t}) / (dist.probability(s) * dist.probability(t))
            assert float(pointwise_return(market, msg, row.target)) == log_of(ratio, 2.0)
        legs = accumulator_legs(market, ("1", "0"), ("0", "1", "1"), ("t3", "t1", "t2"))
        assert [float(leg) for leg in legs] == [1.0, 1.0, 0.0]
        with pytest.raises(MassError):
            accumulator_legs(market, ("0", "1"), ("0", "1", "1"))
