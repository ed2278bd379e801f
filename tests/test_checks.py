"""The self-check battery: every invariant holds on the corpus."""

import random

import pytest

from conftest import random_rational_distribution
from specamb.checks import (
    CheckResult,
    check_bivariate_consistency,
    check_closed_form_agreement,
    check_conditional_corollaries,
    check_lattice_monotonicity,
    check_mass_normalisation,
    check_member_permutation,
    check_mobius_reconstruction,
    check_partial_nonnegativity,
    check_pointwise_sums,
    check_recombination_identity,
    check_superset_irrelevance,
    check_target_chain_rule,
    check_total_information,
    run_all,
)
from specamb.corpus import CORPUS_NAMES, build
from specamb.decomposition import AtomTable, decompose
from specamb.distribution import DistributionError, SchemaError, VariableSchema

# Every check that accepts a prebuilt table.
TABLE_CHECKS = [
    check_member_permutation,
    check_superset_irrelevance,
    check_lattice_monotonicity,
    check_partial_nonnegativity,
    check_mobius_reconstruction,
    check_closed_form_agreement,
    check_pointwise_sums,
    check_total_information,
    check_bivariate_consistency,
]


class TestRunAll:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_is_green(self, name):
        results = run_all(build(name))
        assert all(result.ok for result in results)

    def test_bivariate_gets_extra_check(self):
        names = [r.name for r in run_all(build("xor"))]
        assert "bivariate-consistency" in names

    def test_trivariate_skips_bivariate_check(self):
        names = [r.name for r in run_all(build("tbep"))]
        assert "bivariate-consistency" not in names

    def test_composite_target_gets_chain_checks(self):
        names = [r.name for r in run_all(build("tbc"))]
        assert "target-chain-rule" in names
        assert "conditional-corollaries" in names

    def test_scalar_target_skips_chain_checks(self):
        names = [r.name for r in run_all(build("and"))]
        assert "target-chain-rule" not in names
        assert "conditional-corollaries" not in names

    def test_composite_parity_runs_fifteen_checks(self):
        results = run_all(build("tbc"))
        assert len(results) == 15

    def test_unreachable_tolerance_fails_honestly(self):
        results = run_all(build("and"), tol=1e-20)
        assert any(not result.ok for result in results)
        assert all(result.worst >= 0.0 for result in results)

    def test_every_result_is_labelled(self):
        for result in run_all(build("unq")):
            assert result.name
            assert result.detail


@pytest.mark.parametrize("entry", ["and", "composite-n3", "n4"])
def test_run_all_builds_no_row_views(entry, monkeypatch):
    # The table checks read the columns by node position; building the
    # AtomRow views of a whole table is left to callers that want them.
    if entry == "and":
        dist = build("and")
    else:
        n = 3 if entry == "composite-n3" else 4
        dist = random_rational_distribution(
            random.Random(n), n, composite=n == 3, max_alphabet=2
        )

    def refuse(self, columns):
        raise AssertionError("run_all built AtomRow views")

    monkeypatch.setattr(AtomTable, "_rows", refuse)
    results = run_all(dist)
    assert all(result.ok for result in results)
    assert ("bivariate-consistency" in [r.name for r in results]) == (dist.n == 2)


class TestIndividualChecks:
    def test_mass_normalisation(self):
        result = check_mass_normalisation(build("xor"))
        assert result.ok
        assert result.worst == 0.0

    def test_recombination_identity(self):
        assert check_recombination_identity(build("and")).ok

    def test_monotonicity_accepts_prebuilt_table(self):
        dist = build("pwunq")
        table = decompose(dist)
        assert check_lattice_monotonicity(dist, table).ok

    def test_nonnegativity_worst_is_clamped(self):
        dist = build("rdnerr")
        result = check_partial_nonnegativity(dist, decompose(dist))
        assert result.ok
        assert result.worst == 0.0

    def test_closed_form_agreement(self):
        dist = build("tbep")
        assert check_closed_form_agreement(dist, decompose(dist)).ok

    def test_bivariate_consistency_needs_two_predictors(self):
        dist = build("tbep")
        with pytest.raises(SchemaError):
            check_bivariate_consistency(dist, decompose(dist))


@pytest.mark.parametrize("check", TABLE_CHECKS, ids=lambda check: check.__name__)
class TestGivenTable:
    def test_table_in_another_base_rejected(self, check):
        dist = build("and")
        with pytest.raises(DistributionError, match="base 10.0"):
            check(dist, decompose(dist, base=10.0))

    def test_table_of_another_distribution_rejected(self, check):
        with pytest.raises(DistributionError, match="different distribution"):
            check(build("and"), decompose(build("xor")))

    def test_table_in_the_check_base_passes(self, check):
        dist = build("and")
        assert check(dist, decompose(dist, base=10.0), base=10.0).ok

    def test_table_of_an_equal_distribution_passes(self, check):
        assert check(build("and"), decompose(build("and"))).ok

    @pytest.mark.parametrize("held", ["t1", "t3"])
    def test_conditional_table_passes(self, check, held):
        # Each check reads the values in the table's own conditioning.
        dist = build("tbc")
        assert check(dist, decompose(dist, given=(held,))).ok


@pytest.mark.parametrize("check", [check_target_chain_rule, check_conditional_corollaries])
def test_chain_checks_reject_a_scalar_target(check):
    with pytest.raises(SchemaError):
        check(build("and"))


def test_closed_form_reads_the_table_conditioning():
    # Two predictors, composite target (t1, t2), decomposed given t1.
    dist = random_rational_distribution(random.Random(0), 2, composite=True)
    assert check_closed_form_agreement(dist, decompose(dist, given=("t1",))).ok


def test_corollaries_fail_when_given_does_not_resolve(monkeypatch):
    # Each conditioning resolves its components together with its given
    # components, as rmin_ambiguity does; the mutant drops the given ones.
    resolve = VariableSchema.component_slots

    def drop_given(schema, names=None, given=()):
        return resolve(schema, names)

    dist = build("tbc")
    assert check_conditional_corollaries(dist).ok
    monkeypatch.setattr(VariableSchema, "component_slots", drop_given)
    result = check_conditional_corollaries(dist)
    assert not result.ok
    assert result.worst > 0.5


@pytest.mark.parametrize("check", [check_member_permutation, check_superset_irrelevance])
def test_rmin_checks_report_a_perturbed_node_value(check, monkeypatch):
    # One r_plus entry (the bottom node at the last realisation) moves;
    # the check's worst is exactly that move.
    dist = build("tbc")
    table = decompose(dist)
    realisation = dist.support[-1]
    original = table.column("r_plus")[realisation][0]
    moved = original + 0.375
    column = AtomTable.column

    def perturbed(self, field):
        values = column(self, field)
        if field != "r_plus":
            return values
        values = dict(values)
        values[realisation] = [moved, *values[realisation][1:]]
        return values

    monkeypatch.setattr(AtomTable, "column", perturbed)
    result = check(dist, table)
    assert not result.ok
    assert result.worst == abs(original - moved) > 0.3


class TestCheckResult:
    def test_str_formats_pass(self):
        line = str(CheckResult("demo", True, 0.0, "4 rows"))
        assert line == "pass  demo: 4 rows (worst 0)"

    def test_str_formats_failure(self):
        line = str(CheckResult("demo", False, 0.25, "broke"))
        assert line.startswith("FAIL  demo:")
        assert "0.25" in line
