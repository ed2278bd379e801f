"""Seeded workload inputs and the checks applied to each job's output.

Every workload fixes the predictor count, the alphabet sizes and the exact
number of support rows; the seed only chooses which cells carry mass and
their integer weights.  Each job gets its own input file, drawn from a
generator seeded by ``(workload, seed, job index)``, so two runs on one
seed see byte-identical inputs and should write byte-identical outputs.

The reference for a ``decompose`` output is the mutual information
``I(S1..Sn; T)``, computed here in one pass over the rows with exact
marginals.  ``specamb.measures.mutual_information`` is not used: it issues
a probability query per row and is quadratic in the support size.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

# Tolerances for the averaged pi total.  JSON carries full doubles; CSV
# prints 12 significant digits per node, and the total sums up to 166 of
# those rounded values.
JSON_TOL = 1e-9
CSV_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One fixed input shape and the CLI command run on it."""

    name: str
    command: str  # "decompose" or "verify"
    predictor_sizes: tuple[int, ...]
    target_events: tuple[tuple[str, ...], ...]
    target_header: str
    rows: int
    formats: tuple[str, ...]
    why: str

    @property
    def n(self) -> int:
        return len(self.predictor_sizes)

    def cells(self) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        alphabets = [[str(k) for k in range(size)] for size in self.predictor_sizes]
        return [
            (preds, target)
            for preds in product(*alphabets)
            for target in self.target_events
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decompose-n4",
            command="decompose",
            predictor_sizes=(2, 2, 2, 2),
            target_events=(("0",), ("1",)),
            target_header="t",
            rows=32,
            formats=("csv", "json"),
            why="166-node lattice on a full 32-row support: Moebius inversion dominates",
        ),
        Workload(
            name="verify-n3-composite",
            command="verify",
            predictor_sizes=(2, 2, 2),
            target_events=tuple(product("01", repeat=2)),
            target_header="t1,t2",
            rows=16,
            formats=("json",),
            why="verify battery on a composite target: per-event probability queries dominate",
        ),
        Workload(
            name="decompose-wide-n2",
            command="decompose",
            predictor_sizes=(24, 24),
            target_events=tuple((str(k),) for k in range(4)),
            target_header="t",
            rows=1840,
            formats=("csv",),
            why="4-node lattice on 1840 rows: ingest, per-row marginals and CSV output dominate",
        ),
    )
}


@dataclass(frozen=True)
class JobInput:
    """A generated input file with what its output is checked against."""

    path: Path
    fmt: str
    reference_mi: float
    rows: int


def make_input(workload: Workload, seed: int, index: int, directory: Path) -> JobInput:
    """Write job ``index``'s input file for ``seed`` and return its reference."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    cells = workload.cells()
    if workload.rows < len(cells):
        chosen = set(rng.sample(range(len(cells)), workload.rows))
        cells = [cell for k, cell in enumerate(cells) if k in chosen]
    weights = [rng.randint(1, 9) for _ in cells]
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]

    names = [f"s{i}" for i in range(1, workload.n + 1)]
    lines = ["#p\t" + "\t".join(names + [workload.target_header])]
    for p, (preds, target) in zip(masses, cells):
        lines.append("\t".join([str(p), *preds, ",".join(target)]))
    path = directory / f"{workload.name}-{index}.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    fmt = workload.formats[index % len(workload.formats)]
    return JobInput(path, fmt, mutual_information(cells, masses), len(cells))


def mutual_information(cells, masses) -> float:
    """``I(S; T)`` in bits, with exact marginals and one float log per row."""
    p_s: dict = {}
    p_t: dict = {}
    for p, (preds, target) in zip(masses, cells):
        p_s[preds] = p_s.get(preds, 0) + p
        p_t[target] = p_t.get(target, 0) + p
    return math.fsum(
        float(p) * math.log2(p / (p_s[preds] * p_t[target]))
        for p, (preds, target) in zip(masses, cells)
    )


def check_decompose_output(text: str, job: JobInput, nodes: int) -> str:
    """Empty string when the output is well formed and totals the reference."""
    if job.fmt == "json":
        payload = json.loads(text)
        if len(payload["pointwise"]) != job.rows:
            return f"{len(payload['pointwise'])} pointwise rows, expected {job.rows}"
        if len(payload["averages"]) != nodes:
            return f"{len(payload['averages'])} averaged nodes, expected {nodes}"
        totals = (
            payload["total_pi"],
            math.fsum(row["pi"] for row in payload["averages"].values()),
        )
        tol = JSON_TOL
    else:
        blocks = text.rstrip("\n").split("\n\n")
        if len(blocks) != 2:
            return f"{len(blocks)} CSV blocks, expected 2"
        pointwise = blocks[0].split("\n")
        if len(pointwise) != 1 + job.rows * nodes:
            return f"{len(pointwise) - 1} pointwise CSV rows, expected {job.rows * nodes}"
        averages = list(csv.DictReader(blocks[1].split("\n")))
        if len(averages) != nodes:
            return f"{len(averages)} averaged CSV rows, expected {nodes}"
        totals = (math.fsum(float(row["pi"]) for row in averages),)
        tol = CSV_TOL
    for total in totals:
        if not abs(total - job.reference_mi) <= tol:
            return f"pi total {total!r} vs mutual information {job.reference_mi!r}"
    return ""


def check_verify_output(text: str) -> str:
    """Empty string when every check in a ``verify --format json`` report passed."""
    payload = json.loads(text)
    failed = [check["name"] for check in payload["checks"] if check["ok"] is not True]
    if payload["ok"] is not True or failed or not payload["checks"]:
        return f"verify reported failures: {failed or payload['ok']}"
    return ""


def check_corpus_output(name: str, payload: dict) -> str:
    """Empty string when a corpus ``decompose`` JSON matches its frozen table."""
    from specamb import corpus

    problems = []

    def near(got: float, want: float, where: str) -> None:
        if not abs(got - want) <= JSON_TOL:
            problems.append(f"{name} {where}: {got!r} != {want!r}")

    if name not in corpus.BIVARIATE_CORPUS_NAMES:
        # The trivariate entry has no per-row fixture; its increments are
        # the same closed form at every realisation and on average.
        nonzero = corpus.tbep_expected_partial_specificity()
        tables = [entry["atoms"] for entry in payload["pointwise"]] + [payload["averages"]]
        for rows in tables:
            for node, row in rows.items():
                near(row["pi_plus"], nonzero.get(node, 0.0), f"{node} pi_plus")
                near(row["pi_minus"], 0.0, f"{node} pi_minus")
        return "; ".join(problems[:3])

    fixture = corpus.expected_atoms(name)
    node_of = {atom: node for node, atom in payload["atom_names"].items()}
    for atom, want in fixture.atoms.items():
        near(payload["averages"][node_of[atom]]["pi"], want, f"average {atom}")
    pointwise = {
        (tuple(entry["predictors"]), tuple(entry["target"])): entry
        for entry in payload["pointwise"]
    }
    if len(pointwise) != len(fixture.rows):
        problems.append(f"{name}: {len(pointwise)} rows, expected {len(fixture.rows)}")
    for row in fixture.rows:
        entry = pointwise.get((row.predictors, row.target))
        if entry is None:
            problems.append(f"{name}: no row {row.predictors} -> {row.target}")
            continue
        for atom, prefix in (("R", "r"), ("U1", "u1"), ("U2", "u2"), ("C", "c")):
            got = entry["atoms"][node_of[atom]]
            for side in ("plus", "minus"):
                near(got[f"pi_{side}"], row.columns[f"{prefix}_{side}"],
                     f"{row.predictors}->{row.target} {prefix}_{side}")
    return "; ".join(problems[:3])
