"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public functions of the ``specamb`` modules
the workloads touch with timing wrappers, and returns a function that puts
the originals back.  Methods are wrapped on their class; module functions
are wrapped at every binding in the package, so ``cli.decompose_table``,
``checks.decompose`` and ``decomposition.decompose`` all report to one
span group.  ``kelly`` is not wrapped: no workload runs it.

Spans are folded into per-group totals as they close, because the verify
workload opens over 45k of them per job.  For each group the tracer keeps
the call count, the inclusive time of its outermost spans (a group that
calls itself is not counted twice) and its self time: each span's
duration minus the time of the wrapped spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute or Class.method, span group).  Groups follow the
# layer names the benchmark reports; several functions may share one.
TARGETS = [
    ("lattice", "Lattice.mobius_invert", "lattice.mobius_invert"),
    ("lattice", "Lattice.down_set", "lattice.down_set"),
    ("lattice", "closed_form_partial", "lattice.closed_form_partial"),
    ("lattice", "lattice_for", "lattice.lattice_for"),
    ("distribution", "JointDistribution.probability", "distribution.probability"),
    ("distribution", "JointDistribution.coarsen_target_to_two_events",
     "distribution.transform"),
    ("distribution", "JointDistribution.compose_targets", "distribution.transform"),
    ("distribution", "load_distribution", "distribution.load_distribution"),
    ("decomposition", "rmin_specificity", "decomposition.rmin"),
    ("decomposition", "rmin_ambiguity", "decomposition.rmin"),
    ("decomposition", "target_chain_rule_report", "decomposition.reports"),
    ("decomposition", "coarsening_invariance_report", "decomposition.reports"),
    ("decomposition", "decompose", "decomposition.decompose"),
    ("decomposition", "AtomTable.to_csv", "decomposition.serialise"),
    ("decomposition", "AtomTable.to_json_dict", "decomposition.serialise"),
    ("measures", "specificity", "measures.oracle"),
    ("measures", "ambiguity", "measures.oracle"),
    ("measures", "pointwise_mutual_information", "measures.oracle"),
    ("measures", "average", "measures.oracle"),
    ("checks", "run_all", "checks.run_all"),
]

# Counts read off a wrapped call's result: group -> (counter, measure).
COUNTERS = {
    "distribution.load_distribution": (
        "distribution.support_rows", lambda dist: len(dist.support)
    ),
}

MODULES = ("cli", "checks", "corpus", "decomposition", "distribution", "lattice", "measures")


@dataclass
class GroupStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span stack plus per-group totals; one instance per traced phase."""

    def __init__(self) -> None:
        self.groups: dict[str, GroupStats] = {}
        self._children: list[float] = []  # wrapped-child time per open span
        self._depth: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def wrap(self, group: str, fn):
        stats = self.groups.setdefault(group, GroupStats())
        self._depth.setdefault(group, 0)
        children = self._children
        depth = self._depth
        counts = self.counts
        counter = COUNTERS.get(group)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    name, measure = counter
                    counts[name] = counts.get(name, 0) + measure(result)
                return result
            finally:
                elapsed = clock() - start
                depth[group] -= 1
                stats.calls += 1
                stats.self_s += elapsed - children.pop()
                if depth[group] == 0:
                    stats.total_s += elapsed
                if children:
                    children[-1] += elapsed

        return traced


def _check_targets(checks) -> list[tuple[str, str, str]]:
    """One span group per check function, named like its CheckResult."""
    return [
        ("checks", name, "checks." + name[len("check_"):].replace("_", "-"))
        for name in checks.__all__
        if name.startswith("check_")
    ]


def install(tracer: Tracer):
    """Wrap every target at every binding; return the undo function."""
    package = importlib.import_module("specamb")
    modules = [package] + [importlib.import_module(f"specamb.{m}") for m in MODULES]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo: list[tuple[object, str, object]] = []

    for module_name, attr, group in TARGETS + _check_targets(by_name["checks"]):
        module = by_name[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(group, original))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(group, original)
        for owner in modules:
            for name, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, name, original))
                    setattr(owner, name, wrapped)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
