"""Command-line interface.

Six subcommands cover the package surface: ``decompose`` runs the engine
on a file or corpus distribution, ``lattice`` prints node structure,
``chainrule`` evaluates composite-target additivity, ``corpus`` emits a
canonical distribution, ``kelly`` simulates proportional betting, and
``verify`` runs the invariant suite.

Non-pretty output is byte-stable for identical inputs: rows follow the
canonical (first-appearance) support order, floats print with ``%.12g``
and JSON keys are sorted.  Exit codes: 0 success, 1 failed verification,
2 invalid input, matching common scripting conventions.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Optional

import click

import specamb
from specamb import corpus as corpus_mod
from specamb.checks import run_all, validate_tolerance
from specamb.decomposition import decompose as decompose_table
from specamb.decomposition import target_chain_rule_report
from specamb.distribution import DistributionError, JointDistribution, load_distribution
from specamb.kelly import (
    RaceMarket,
    optimal_doubling_rate,
    simulate_races,
    value_of_side_information,
)
from specamb.lattice import DEFAULT_MAX_PREDICTORS, lattice_for

__all__ = ["main"]


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load(
    corpus_name: Optional[str], input_path: Optional[str], epsilon: str
) -> JointDistribution:
    if (corpus_name is None) == (input_path is None):
        _fail("give exactly one of --corpus or --input")
    try:
        if corpus_name is not None:
            return corpus_mod.build(corpus_name, epsilon=Fraction(epsilon))
        with open(input_path, "r", encoding="utf-8") as handle:
            fmt = "json" if input_path.endswith(".json") else "tsv"
            return load_distribution(handle, fmt)
    except (DistributionError, ValueError, ZeroDivisionError) as exc:
        _fail(str(exc))
    except OSError as exc:
        _fail(f"cannot read {input_path}: {exc}")
    raise AssertionError("unreachable")


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            _fail(f"cannot write {out}: {exc}")


def _json_dumps(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


input_options = [
    click.option("--corpus", "corpus_name",
                 type=click.Choice(corpus_mod.CORPUS_NAMES), default=None,
                 help="Name of a built-in example distribution."),
    click.option("--input", "input_path", type=click.Path(), default=None,
                 help="Path to a TSV or JSON distribution file."),
    click.option("--epsilon", default="1/4", show_default=True,
                 help="Error probability for the rdnerr corpus entry."),
]


def with_options(options):
    def wrap(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return wrap


@click.group()
@click.version_option(version=specamb.__version__)
def main() -> None:
    """Pointwise decomposition of multivariate information."""


@main.command(name="decompose")
@with_options(input_options)
@click.option("--targets", default=None,
              help="Comma-separated target components to decompose about.")
@click.option("--pointwise", "pointwise_only", is_flag=True,
              help="Emit the per-realisation table only.")
@click.option("--average", "average_only", is_flag=True,
              help="Emit the averaged table only.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "pretty"]),
              default="csv", show_default=True)
@click.option("--base", default=2.0, show_default=True,
              help="Logarithm base for all information values.")
@click.option("--lattice-cap", default=DEFAULT_MAX_PREDICTORS, show_default=True,
              help="Largest predictor count to enumerate a lattice for.")
@click.option("--out", default=None, type=click.Path(),
              help="Write the artifact to a file instead of standard output.")
def decompose_cmd(corpus_name, input_path, epsilon, targets, pointwise_only,
                  average_only, fmt, base, lattice_cap, out) -> None:
    """Decompose a distribution into per-node information atoms."""
    dist = _load(corpus_name, input_path, epsilon)
    try:
        if targets is not None:
            dist = dist.compose_targets(tuple(targets.split(",")))
        table = decompose_table(dist, base=base, max_predictors=lattice_cap)
    except DistributionError as exc:
        _fail(str(exc))
    which = "both"
    if pointwise_only and not average_only:
        which = "pointwise"
    elif average_only and not pointwise_only:
        which = "average"
    writers = {"csv": table.to_csv, "json": table.to_json, "pretty": table.to_pretty}
    _emit(writers[fmt](which), out)


@main.command(name="lattice")
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "pretty"]),
              default="pretty", show_default=True)
@click.option("--lattice-cap", default=DEFAULT_MAX_PREDICTORS, show_default=True)
@click.option("--out", default=None, type=click.Path())
def lattice_cmd(n, fmt, lattice_cap, out) -> None:
    """Print the node lattice for N predictors (bottom first)."""
    try:
        lattice = lattice_for(n, lattice_cap)
    except (DistributionError, ValueError) as exc:
        _fail(str(exc))
    names = lattice.names
    covers = [sorted(names[k] for k in below) for below in lattice.cover_positions]
    if fmt == "json":
        _emit(_json_dumps({
            "n": n,
            "count": len(names),
            "nodes": list(names),
            "lower_covers": dict(zip(names, covers)),
        }), out)
    elif fmt == "csv":
        lines = ["node,lower_covers"]
        for name, below in zip(names, covers):
            joined = ";".join(below)
            lines.append(f'{name},"{joined}"' if joined else f"{name},")
        _emit("\n".join(lines), out)
    else:
        lines = [f"{len(names)} nodes for n={n} (bottom first)"]
        for name, below in zip(names, covers):
            lines.append(f"  {name}" + (f"  <-  {', '.join(below)}" if below else ""))
        _emit("\n".join(lines), out)


@main.command(name="chainrule")
@with_options(input_options)
@click.option("--targets", default=None,
              help="Comma-separated component order; default is declared order.")
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--base", default=2.0, show_default=True)
@click.option("--lattice-cap", default=DEFAULT_MAX_PREDICTORS, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "pretty"]),
              default="pretty", show_default=True)
@click.option("--out", default=None, type=click.Path())
def chainrule_cmd(corpus_name, input_path, epsilon, targets, tol, base,
                  lattice_cap, fmt, out) -> None:
    """Check composite-target additivity in both component orders."""
    dist = _load(corpus_name, input_path, epsilon)
    order = tuple(targets.split(",")) if targets else dist.schema.target_components
    if order is None:
        _fail("this distribution has no composite target; use --targets on one that does")
    try:
        validate_tolerance(tol)
        reports = [
            target_chain_rule_report(dist, order, base=base, max_predictors=lattice_cap),
            target_chain_rule_report(dist, tuple(reversed(order)), base=base,
                                     max_predictors=lattice_cap),
        ]
    except DistributionError as exc:
        _fail(str(exc))
    worst = max(report.max_abs_residual for report in reports)
    ok = worst <= tol
    if fmt == "json":
        _emit(_json_dumps({
            "orders": [
                {"order": list(report.order),
                 "max_abs_residual": report.max_abs_residual}
                for report in reports
            ],
            "max_abs_residual": worst,
            "tol": tol,
            "ok": ok,
        }), out)
    elif fmt == "csv":
        lines = ["order,max_abs_residual"]
        for report in reports:
            lines.append(f"{';'.join(report.order)},{report.max_abs_residual:.12g}")
        _emit("\n".join(lines), out)
    else:
        lines = []
        for report in reports:
            lines.append(f"order {' -> '.join(report.order)}: "
                         f"max residual {report.max_abs_residual:.3g}")
        lines.append(f"{'pass' if ok else 'FAIL'}: worst residual {worst:.3g} "
                     f"(tolerance {tol:g})")
        _emit("\n".join(lines), out)
    if not ok:
        sys.exit(1)


@main.command(name="corpus")
@click.argument("name", type=click.Choice(corpus_mod.CORPUS_NAMES))
@click.option("--epsilon", default="1/4", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]),
              default="tsv", show_default=True)
@click.option("--out", default=None, type=click.Path())
def corpus_cmd(name, epsilon, fmt, out) -> None:
    """Emit a built-in example distribution, re-ingestable by decompose."""
    from specamb.distribution import dumps_json, dumps_tsv

    try:
        dist = corpus_mod.build(name, epsilon=Fraction(epsilon))
    except (DistributionError, ValueError, ZeroDivisionError) as exc:
        _fail(str(exc))
    _emit(dumps_tsv(dist) if fmt == "tsv" else dumps_json(dist), out)


@main.command(name="kelly")
@with_options(input_options)
@click.option("--wire", default=None,
              help="Comma-separated predictors on the wire; default all.")
@click.option("--races", default=10000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--base", default=2.0, show_default=True)
@click.option("--out", default=None, type=click.Path())
def kelly_cmd(corpus_name, input_path, epsilon, wire, races, seed, base, out) -> None:
    """Simulate fair-odds proportional betting with wire side information."""
    dist = _load(corpus_name, input_path, epsilon)
    names = tuple(wire.split(",")) if wire else dist.schema.predictors
    try:
        market = RaceMarket(dist, wire=names)
        blind = RaceMarket(dist)
        result = simulate_races(market, races, seed, base=base)
        payload = {
            "wire": list(names),
            "races": races,
            "seed": seed,
            "base": base,
            "baseline_rate": float(optimal_doubling_rate(blind, base=base)),
            "analytic_rate": result.analytic_rate,
            "empirical_rate": result.empirical_rate,
            "side_information_value": float(value_of_side_information(market, base=base))
            if names else 0.0,
            "trajectory_summary": result.to_json_dict(),
        }
    except DistributionError as exc:
        _fail(str(exc))
    _emit(_json_dumps(payload), out)


@main.command(name="verify")
@with_options(input_options)
@click.option("--tol", default=1e-9, show_default=True)
@click.option("--base", default=2.0, show_default=True)
@click.option("--lattice-cap", default=DEFAULT_MAX_PREDICTORS, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "pretty"]),
              default="pretty", show_default=True)
@click.option("--out", default=None, type=click.Path())
def verify_cmd(corpus_name, input_path, epsilon, tol, base, lattice_cap,
               fmt, out) -> None:
    """Run every applicable invariant check and report pass/fail."""
    dist = _load(corpus_name, input_path, epsilon)
    try:
        results = run_all(dist, tol=tol, base=base, max_predictors=lattice_cap)
    except DistributionError as exc:
        _fail(str(exc))
    if fmt == "json":
        _emit(_json_dumps({
            "tol": tol,
            "ok": all(result.ok for result in results),
            "checks": [
                {"name": result.name, "ok": result.ok,
                 "worst": result.worst, "detail": result.detail}
                for result in results
            ],
        }), out)
    else:
        lines = [str(result) for result in results]
        passed = sum(result.ok for result in results)
        lines.append(f"{passed}/{len(results)} checks passed (tolerance {tol:g})")
        _emit("\n".join(lines), out)
    if not all(result.ok for result in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
