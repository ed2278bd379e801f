"""Proportional betting on the target variable.

A :class:`RaceMarket` treats each target event as a horse paying fixed
odds.  A gambler who may see some predictor variables (the wire) bets
their full capital in proportion to the best conditional distribution
available to them.  Under fair odds the long-run growth of log capital
recovers the information measures: the rate gained from the wire is the
mutual information, the log return of a single race is the pointwise
mutual information, and a chained bet on the components of a composite
target accrues one conditional pointwise term per leg.

Proportional betting never stakes anything on a horse with zero
posterior probability, so capital never hits zero.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from specamb.distribution import (
    JointDistribution,
    MassError,
    SchemaError,
)
from specamb.measures import InfoValue, log_of, mutual_information, validate_base

__all__ = [
    "RNG_ALGORITHM",
    "RaceMarket",
    "SimulationResult",
    "optimal_doubling_rate",
    "value_of_side_information",
    "pointwise_return",
    "simulate_races",
    "accumulator_legs",
    "accumulator_log_return",
]

# Seedable Mersenne Twister, sampled by inverse CDF over the support rows
# in canonical (first-appearance) order.  Recorded in simulation output so
# trajectories can be tied to the generator that produced them.
RNG_ALGORITHM = "mt19937-inverse-cdf"

TargetKey = Union[str, Sequence[str]]
WireMessage = Union[Mapping[str, str], Sequence[str]]


def _as_target(dist: JointDistribution, t: TargetKey) -> tuple[str, ...]:
    arity = dist.schema.target_arity()
    if isinstance(t, str):
        parts = tuple(t.split(",")) if arity > 1 else (t,)
    else:
        parts = tuple(t)
    if len(parts) != arity:
        raise SchemaError(f"target event {t!r} has arity {len(parts)}, need {arity}")
    return parts


class RaceMarket:
    """A horse race over the target events of a joint distribution.

    ``wire`` names the predictor variables the gambler observes before
    betting; it may be empty.  ``odds`` maps each positive-probability
    target event to its payout multiplier and defaults to the fair book
    ``o(t) = 1/p(t)``.  Explicit odds only need to be positive; whether
    the book has a track take is reported, not forbidden, since shifted
    books are useful reference points.
    """

    __slots__ = ("joint", "wire", "odds", "_p_target", "_p_wire", "_p_joint")

    def __init__(
        self,
        joint: JointDistribution,
        *,
        wire: Sequence[str] = (),
        odds: Optional[Mapping[TargetKey, object]] = None,
    ) -> None:
        if joint.schema.target is None:
            raise SchemaError("a race market needs a distribution with a target")
        wire_names = tuple(wire)
        known = joint.schema.predictors
        if len(set(wire_names)) != len(wire_names):
            raise SchemaError(f"wire names repeat: {wire_names}")
        for name in wire_names:
            if name not in known:
                raise SchemaError(f"wire variable {name!r} is not a predictor")
        # joint_masses keys list the wire labels in predictor order; a
        # message lists them in wire order.
        positions = tuple(sorted(known.index(name) + 1 for name in wire_names))
        cut = len(positions)
        order = [positions.index(known.index(name) + 1) for name in wire_names]
        components = tuple(range(joint.schema.target_arity()))
        # Divide by the total, which decimal-mode input only matches to 1e-9.
        total = joint.total_mass
        p_target = {t: p / total for t, p in joint.joint_masses((), components).items()}
        p_wire = {
            tuple(labels[k] for k in order): p / total
            for labels, p in joint.joint_masses(positions).items()
        }
        p_joint = {
            (tuple(labels[k] for k in order), labels[cut:]): p / total
            for labels, p in joint.joint_masses(positions, components).items()
        }
        if odds is None:
            book = {t: Fraction(1) / p for t, p in p_target.items()}
        else:
            book = {}
            for key, value in odds.items():
                event = _as_target(joint, key)
                if event not in p_target:
                    raise SchemaError(f"odds given for zero-probability horse {key!r}")
                payout = Fraction(value)  # type: ignore[arg-type]
                if payout <= 0:
                    raise MassError(f"odds must be positive, got {key!r}: {payout}")
                book[event] = payout
            missing = set(p_target) - set(book)
            if missing:
                raise SchemaError(f"no odds for horses: {sorted(missing)}")
        self.joint = joint
        self.wire = wire_names
        self.odds = book
        self._p_target = p_target
        self._p_wire = p_wire
        self._p_joint = p_joint

    @property
    def is_fair(self) -> bool:
        """True when every payout is exactly the reciprocal probability."""
        return all(self.odds[t] * p == 1 for t, p in self._p_target.items())

    def book_sum(self) -> Fraction:
        """Sum of reciprocal payouts; 1 means no track take."""
        return sum(1 / o for o in self.odds.values())

    def _require_fair(self, operation: str) -> None:
        if not self.is_fair:
            raise MassError(f"{operation} assumes fair odds o(t) = 1/p(t)")

    def message(self, s: WireMessage) -> tuple[str, ...]:
        """Normalise a wire message to a tuple in wire order."""
        if isinstance(s, Mapping):
            extra = set(s) - set(self.wire)
            if extra:
                raise SchemaError(f"message names unknown wire variables {sorted(extra)}")
            try:
                msg = tuple(s[name] for name in self.wire)
            except KeyError as exc:
                raise SchemaError(f"message misses wire variable {exc.args[0]!r}") from None
        else:
            msg = tuple(s)
        if len(msg) != len(self.wire):
            raise SchemaError(
                f"message {msg} has {len(msg)} entries, wire has {len(self.wire)}"
            )
        if msg not in self._p_wire:
            raise MassError(f"wire message {msg} has zero probability")
        return msg


def optimal_doubling_rate(market: RaceMarket, *, base: float = 2.0) -> InfoValue:
    """Per-race growth of log capital for the wireless proportional bettor.

    Equals ``sum_t p(t) log[p(t) o(t)]``; exactly zero under fair odds.
    """
    validate_base(base)
    total = math.fsum(
        float(p) * log_of(p * market.odds[t], base)
        for t, p in market._p_target.items()
    )
    return InfoValue(total, base)


def value_of_side_information(market: RaceMarket, *, base: float = 2.0) -> InfoValue:
    """Rate gained by betting on the wire posterior instead of the prior.

    Requires fair odds and a nonempty wire.  The value is checked against
    the mutual information between the wire and the target before being
    returned; the two are the same quantity computed by different routes.
    """
    validate_base(base)
    if not market.wire:
        raise SchemaError("market has no wire; there is no side information")
    market._require_fair("value_of_side_information")
    gain = math.fsum(
        float(p) * log_of(p / (market._p_wire[msg] * market._p_target[t]), base)
        for (msg, t), p in market._p_joint.items()
    )
    sub = market.joint.marginal(market.wire + (market.joint.schema.target,))
    info = float(mutual_information(sub, base=base))
    if abs(gain - info) > 1e-9:
        raise ArithmeticError(
            f"doubling-rate gain {gain!r} and mutual information {info!r} disagree"
        )
    return InfoValue(gain, base)


def pointwise_return(
    market: RaceMarket, s: WireMessage, t: TargetKey, *, base: float = 2.0
) -> InfoValue:
    """Log return of one race given the wire message and the winner.

    Under fair odds this is the pointwise mutual information between the
    message and the winning target event; capital multiplies by
    ``base ** return``.
    """
    validate_base(base)
    market._require_fair("pointwise_return")
    return InfoValue(log_of(_race_ratio(market, s, t), base), base)


def _race_ratio(market: RaceMarket, s: WireMessage, t: TargetKey) -> Fraction:
    """``p(msg, t) / (p(msg) p(t))`` for one race."""
    msg = market.message(s)
    event = _as_target(market.joint, t)
    joint = market._p_joint.get((msg, event))
    if not joint:
        raise MassError(f"pair {msg} / {event} has zero probability")
    return joint / (market._p_wire[msg] * market._p_target[event])


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a seeded race-sequence simulation.

    ``checkpoints`` lists ``(race_number, log_wealth)`` samples including
    the final race; ``empirical_rate`` is ``log_wealth / races`` and is
    expected to approach ``analytic_rate`` as the race count grows.
    """

    races: int
    seed: int
    rng: str
    analytic_rate: float
    empirical_rate: float
    final_log_wealth: float
    checkpoints: tuple[tuple[int, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "races": self.races,
            "seed": self.seed,
            "rng": self.rng,
            "analytic_rate": self.analytic_rate,
            "empirical_rate": self.empirical_rate,
            "final_log_wealth": self.final_log_wealth,
            "checkpoints": [list(point) for point in self.checkpoints],
        }


def simulate_races(
    market: RaceMarket, races: int, seed: int, *, base: float = 2.0
) -> SimulationResult:
    """Run ``races`` independent races and track log wealth.

    Each race draws a (message, winner) pair by inverse CDF over the
    support in canonical order using ``random.Random(seed)``, then bets
    the posterior given the message at the market's odds.  Wealth is kept
    in log space so long runs cannot overflow.
    """
    validate_base(base)
    if races < 1:
        raise MassError(f"need at least one race, got {races}")
    rows = list(market._p_joint.items())
    returns = []
    cumulative = []
    acc = 0.0
    for (msg, t), p in rows:
        bet = p / market._p_wire[msg]
        returns.append(log_of(bet * market.odds[t], base))
        acc += float(p)
        cumulative.append(acc)
    cumulative[-1] = 1.0
    analytic = math.fsum(
        float(p) * r for (_, p), r in zip(rows, returns)
    )
    rng = random.Random(seed)
    stride = max(1, races // 100)
    log_wealth = 0.0
    checkpoints: list[tuple[int, float]] = []
    for race in range(1, races + 1):
        log_wealth += returns[bisect_right(cumulative, rng.random())]
        if race % stride == 0 or race == races:
            checkpoints.append((race, log_wealth))
    return SimulationResult(
        races=races,
        seed=seed,
        rng=RNG_ALGORITHM,
        analytic_rate=analytic,
        empirical_rate=log_wealth / races,
        final_log_wealth=log_wealth,
        checkpoints=tuple(checkpoints),
    )


def accumulator_legs(
    market: RaceMarket,
    s: WireMessage,
    t: TargetKey,
    order: Optional[Sequence[str]] = None,
    *,
    base: float = 2.0,
) -> tuple[InfoValue, ...]:
    """Per-leg log returns of a chained bet on the target components.

    Legs settle in ``order`` (default: declared component order).  Leg
    ``k`` bets the posterior of component ``k`` given the wire message and
    the already-settled components, at odds fair given the settled
    components alone, so its log return is the conditional pointwise
    mutual information of that leg.
    """
    validate_base(base)
    ratios = _leg_ratios(market, s, t, order)
    return tuple(InfoValue(log_of(r, base), base) for r in ratios)


def accumulator_log_return(
    market: RaceMarket,
    s: WireMessage,
    t: TargetKey,
    order: Optional[Sequence[str]] = None,
    *,
    base: float = 2.0,
) -> InfoValue:
    """Total log return of the chained bet; independent of leg order.

    The leg ratios telescope, so the product is the single-race return on
    the full composite winner and every component permutation yields the
    same value.
    """
    validate_base(base)
    return InfoValue(log_of(math.prod(_leg_ratios(market, s, t, order)), base), base)


def _leg_ratios(
    market: RaceMarket,
    s: WireMessage,
    t: TargetKey,
    order: Optional[Sequence[str]],
) -> list[Fraction]:
    schema = market.joint.schema
    market._require_fair("accumulator_log_return")
    if schema.target_components is None:
        # A plain target is a one-leg chain: the whole race in one bet.
        if order is not None and tuple(order) != (schema.target,):
            raise SchemaError(
                f"order {tuple(order)} does not match the single target {schema.target!r}"
            )
        return [_race_ratio(market, s, t)]
    names = schema.target_components if order is None else tuple(order)
    if sorted(names) != sorted(schema.target_components):
        raise SchemaError(
            f"order {tuple(names)} is not a permutation of {schema.target_components}"
        )
    msg = market.message(s)
    event = _as_target(market.joint, t)
    slots = [schema.component_index(name) for name in names]
    # joint_masses keys list the wire labels in predictor order.
    wire = sorted(zip((schema.predictors.index(name) + 1 for name in market.wire), msg))
    positions = tuple(i for i, _ in wire)
    wire_labels = tuple(label for _, label in wire)
    joint = market.joint
    # The masses of (msg, settled components) and of the settled components
    # alone; the total mass cancels out of every ratio.
    prev = (joint.joint_masses(positions)[wire_labels], joint.total_mass)
    ratios: list[Fraction] = []
    settled: dict[int, str] = {}
    for slot in slots:
        settled[slot] = event[slot]
        given = tuple(sorted(settled))
        labels = tuple(settled[k] for k in given)
        with_msg = joint.joint_masses(positions, given).get(wire_labels + labels)
        if with_msg is None:
            raise MassError(
                f"leg {schema.target_components[slot]!r}={event[slot]!r} "
                f"has zero probability"
            )
        alone = joint.joint_masses((), given)[labels]
        ratios.append((with_msg / prev[0]) / (alone / prev[1]))
        prev = (with_msg, alone)
    return ratios
