"""Pointwise partial information decomposition on specificity and ambiguity lattices.

The package splits the signed pointwise mutual information carried by a
set of discrete predictor variables about a target into non-negative
per-node increments on two parallel antichain lattices (one for the
informative surprisal, one for the misinformative conditional surprisal)
and recombines them into redundant, unique, and complementary atoms.
Probabilities stay exact rationals until a single logarithm at the end,
so structural identities hold to the last bit.

Layer map: :mod:`specamb.distribution` (exact joint distributions and
ingestion), :mod:`specamb.measures` (surprisal-level quantities),
:mod:`specamb.lattice` (antichain enumeration, order, inversion),
:mod:`specamb.decomposition` (the engine and its reports),
:mod:`specamb.corpus` (worked examples with frozen tables),
:mod:`specamb.kelly` (proportional-betting interpretation),
:mod:`specamb.checks` (named invariant suite), :mod:`specamb.cli`
(command-line front end).
"""

from specamb.checks import CheckResult, run_all
from specamb.corpus import build as build_corpus
from specamb.corpus import expected_atoms
from specamb.decomposition import (
    AtomRow,
    AtomTable,
    ChainRuleReport,
    CoarseningReport,
    coarsening_invariance_report,
    decompose,
    node_redundancy,
    rmin_ambiguity,
    rmin_specificity,
    target_chain_rule_report,
)
from specamb.distribution import (
    DistributionError,
    DuplicateRowWarning,
    FormatError,
    JointDistribution,
    MassError,
    Realisation,
    SchemaError,
    SourceEvent,
    VariableSchema,
    ZeroMassRowWarning,
    dumps_json,
    dumps_tsv,
    load_distribution,
    loads_json,
    loads_tsv,
)
from specamb.kelly import (
    RaceMarket,
    SimulationResult,
    accumulator_legs,
    accumulator_log_return,
    optimal_doubling_rate,
    pointwise_return,
    simulate_races,
    value_of_side_information,
)
from specamb.lattice import Lattice, LatticeNode, enumerate_nodes, lattice_for
from specamb.measures import (
    InfoValue,
    ambiguity,
    average,
    mutual_information,
    pointwise_conditional_entropy,
    pointwise_entropy,
    pointwise_mutual_information,
    specificity,
)

__version__ = "0.1.0"

__all__ = [
    "AtomRow",
    "AtomTable",
    "ChainRuleReport",
    "CheckResult",
    "CoarseningReport",
    "DistributionError",
    "DuplicateRowWarning",
    "FormatError",
    "InfoValue",
    "JointDistribution",
    "Lattice",
    "LatticeNode",
    "MassError",
    "RaceMarket",
    "Realisation",
    "SchemaError",
    "SimulationResult",
    "SourceEvent",
    "VariableSchema",
    "ZeroMassRowWarning",
    "accumulator_legs",
    "accumulator_log_return",
    "ambiguity",
    "average",
    "build_corpus",
    "coarsening_invariance_report",
    "decompose",
    "dumps_json",
    "dumps_tsv",
    "enumerate_nodes",
    "expected_atoms",
    "lattice_for",
    "load_distribution",
    "loads_json",
    "loads_tsv",
    "mutual_information",
    "node_redundancy",
    "optimal_doubling_rate",
    "pointwise_conditional_entropy",
    "pointwise_entropy",
    "pointwise_mutual_information",
    "pointwise_return",
    "rmin_ambiguity",
    "rmin_specificity",
    "run_all",
    "simulate_races",
    "specificity",
    "target_chain_rule_report",
    "value_of_side_information",
    "__version__",
]
