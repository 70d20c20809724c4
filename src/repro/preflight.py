"""Preflight — lint, triage and diagnose a problem *before* solving.

Real geographies have islands, holes, NaN attributes and constraint
sets that are provably unsatisfiable before a single region is grown.
This module is the gate every entry point (library
:meth:`repro.fact.FaCT.solve`, the CLI, the service's submit path)
runs before committing solver budget. It produces a structured
:class:`PreflightReport` of :class:`Finding`\\ s — each with a stable
machine-readable ``code``, a severity, the offending area ids and the
relevant numbers — instead of a crash or a burned budget.

Three layers, cheapest first:

1. **Raw-input lint** (:func:`lint_rows`) — validates attribute rows
   and adjacency *before* an :class:`~repro.core.area.AreaCollection`
   is built (the collection constructor hard-raises on the same
   defects; the lint reports them all at once, with ids).
2. **Structure scan** (:func:`scan_structure`) — connected components
   of the contiguity graph; islands and isolated areas become findings
   (and first-class solvable scenarios via
   ``FaCTConfig(decompose_components=True)``), not crashes.
3. **Infeasibility diagnosis** (:func:`run_preflight`) — cheap
   relaxation bounds per enriched constraint, extending the Phase-1
   scan of :mod:`repro.fact.feasibility`: global bounds come from its
   :class:`~repro.fact.feasibility.ConstraintDiagnostic` entries, and
   per-component bounds (can *this* island carry a valid region at
   all?) are added on top. A provable verdict carries per-constraint
   slack/deficit numbers.

Finding-code taxonomy (stable public contract — never rename):

========================== ======== =================================
code                       severity meaning
========================== ======== =================================
``duplicate-area-id``      error    same id on several rows
``non-numeric-attribute``  error    attribute not coercible to float
``non-finite-attribute``   error    NaN/±inf attribute value
``missing-attribute``      error    row lacks an attribute others have
``self-loop``              error    area adjacent to itself
``unknown-adjacency-id``   error    adjacency names a missing area
``asymmetric-adjacency``   error    i→j without j→i
``negative-weight``        error    negative adjacency weight
``non-finite-weight``      error    NaN/±inf adjacency weight
``disconnected-geography`` warning  >1 connected component
``isolated-area``          warning  single-vertex components
``infeasible-*``           error    proven by a relaxation bound (see
                                    :mod:`repro.fact.feasibility` for
                                    the per-constraint variants)
``avg-outside-range``      (both)   Theorem-3 AVG condition
``all-areas-invalid``      error    filtration removes everything
``no-seed-area``           error    no valid seed for MIN/MAX
``heavy-filtration``       warning  some areas filtered to U_0
``component-sum-deficit``  warning  island can't reach a SUM lower
``component-count-deficit`` warning island smaller than COUNT lower
``component-no-seed``      warning  island has no seed area
``infeasible-components``  error    *no* component can host a region
========================== ======== =================================
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from .exceptions import InfeasibleProblemError

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "PreflightReport",
    "build_report",
    "component_findings",
    "lint_rows",
    "run_preflight",
    "scan_structure",
]

ERROR = "error"
WARNING = "warning"

# Cap per-finding id lists so a 50k-area defect stays readable.
_MAX_IDS = 20

PREFLIGHT_FORMAT = "repro-preflight/1"


def _sample(ids) -> tuple[int, ...]:
    return tuple(sorted(ids)[:_MAX_IDS])


@dataclass(frozen=True)
class Finding:
    """One preflight defect or signal.

    Attributes
    ----------
    code:
        Stable kebab-case identifier from the module taxonomy.
    severity:
        ``"error"`` (input must be fixed / problem is unsolvable) or
        ``"warning"`` (solvable, but degenerate — e.g. islands).
    message:
        Human-readable explanation.
    ids:
        Offending area ids (a sorted sample of at most 20).
    data:
        Machine-readable numbers — slack/deficit per constraint,
        component sizes, defect counts.
    """

    code: str
    severity: str
    message: str
    ids: tuple[int, ...] = ()
    data: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "ids": list(self.ids),
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class PreflightReport:
    """Structured outcome of the preflight gate.

    Attributes
    ----------
    findings:
        All findings, lint first, then structure, then feasibility.
    components:
        Connected components of the contiguity graph as sorted id
        tuples, ordered by smallest member id — the decomposition
        order used by ``decompose_components`` solves.
    feasibility:
        The Phase-1 :class:`~repro.fact.feasibility.FeasibilityReport`
        when constraints were checked, else ``None``.
    """

    findings: tuple[Finding, ...] = ()
    components: tuple[tuple[int, ...], ...] = ()
    feasibility: object | None = None

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    def finding(self, code: str) -> Finding | None:
        """First finding with *code*, or None."""
        for entry in self.findings:
            if entry.code == code:
                return entry
        return None

    def as_dict(self) -> dict[str, object]:
        """JSON-ready form (the CI artifact / service payload shape)."""
        return {
            "format": PREFLIGHT_FORMAT,
            "ok": self.ok,
            "n_components": self.n_components,
            "component_sizes": [len(c) for c in self.components],
            "findings": [f.as_dict() for f in self.findings],
            "feasibility": (
                None
                if self.feasibility is None
                else self.feasibility.summary()
            ),
        }

    def raise_if_failed(self) -> None:
        """Raise :class:`InfeasibleProblemError` on any error finding.

        The error carries this report (``preflight``) and the Phase-1
        report (``report``) so callers get the slack numbers, not just
        prose.
        """
        errors = self.errors
        if not errors:
            return
        raise InfeasibleProblemError(
            "; ".join(f.message for f in errors),
            report=self.feasibility,
            preflight=self,
        )


# ----------------------------------------------------------------------
# layer 1 — raw-input lint
# ----------------------------------------------------------------------
def lint_rows(rows, adjacency=None) -> tuple[Finding, ...]:
    """Lint raw attribute rows (and optional adjacency) pre-collection.

    Parameters
    ----------
    rows:
        ``{area_id: {attribute: value}}`` mapping, or an iterable of
        ``(area_id, {attribute: value})`` pairs (the pair form can
        express duplicate ids, which a dict cannot).
    adjacency:
        Optional ``{area_id: neighbors}`` where ``neighbors`` is an
        iterable of ids or a ``{neighbor_id: weight}`` mapping.

    Returns one aggregated :class:`Finding` per defect code, so a file
    with 400 NaN cells yields one ``non-finite-attribute`` finding
    with a 20-id sample and a total count — not 400 findings.
    """
    items = list(rows.items()) if isinstance(rows, Mapping) else list(rows)
    findings: list[Finding] = []

    def report(code, message, ids, **data):
        findings.append(
            Finding(
                code=code,
                severity=ERROR,
                message=message,
                ids=_sample(ids),
                data={"count": len(ids), **data},
            )
        )

    seen: dict[int, Mapping] = {}
    duplicates: set[int] = set()
    for area_id, attributes in items:
        if area_id in seen:
            duplicates.add(area_id)
        else:
            seen[area_id] = attributes
    if duplicates:
        report(
            "duplicate-area-id",
            f"{len(duplicates)} area id(s) appear on more than one row",
            duplicates,
        )

    names = sorted({name for attrs in seen.values() for name in attrs})
    missing: set[int] = set()
    non_numeric: set[int] = set()
    non_finite: set[int] = set()
    bad_names: set[str] = set()
    for area_id, attributes in seen.items():
        for name in names:
            if name not in attributes:
                missing.add(area_id)
                bad_names.add(name)
                continue
            try:
                value = float(attributes[name])
            except (TypeError, ValueError):
                non_numeric.add(area_id)
                bad_names.add(name)
                continue
            if not math.isfinite(value):
                non_finite.add(area_id)
                bad_names.add(name)
    if missing:
        report(
            "missing-attribute",
            f"{len(missing)} area(s) lack attribute(s) present on other "
            "rows",
            missing,
            attributes=sorted(bad_names),
        )
    if non_numeric:
        report(
            "non-numeric-attribute",
            f"{len(non_numeric)} area(s) carry attribute values that are "
            "not coercible to float",
            non_numeric,
            attributes=sorted(bad_names),
        )
    if non_finite:
        report(
            "non-finite-attribute",
            f"{len(non_finite)} area(s) carry NaN or infinite attribute "
            "values",
            non_finite,
            attributes=sorted(bad_names),
        )

    if adjacency is not None:
        self_loops: set[int] = set()
        unknown: set[int] = set()
        asymmetric: set[int] = set()
        negative: set[int] = set()
        bad_weight: set[int] = set()

        def neighbor_ids(value):
            return value.keys() if isinstance(value, Mapping) else value

        for area_id, neighbors in adjacency.items():
            weighted = isinstance(neighbors, Mapping)
            for neighbor in neighbor_ids(neighbors):
                if neighbor == area_id:
                    self_loops.add(area_id)
                if neighbor not in seen:
                    unknown.add(area_id)
                    continue
                reverse = adjacency.get(neighbor, ())
                if area_id not in set(neighbor_ids(reverse)):
                    asymmetric.add(area_id)
                if weighted:
                    weight = neighbors[neighbor]
                    try:
                        weight = float(weight)
                    except (TypeError, ValueError):
                        bad_weight.add(area_id)
                        continue
                    if not math.isfinite(weight):
                        bad_weight.add(area_id)
                    elif weight < 0:
                        negative.add(area_id)
        if self_loops:
            report(
                "self-loop",
                f"{len(self_loops)} area(s) are adjacent to themselves",
                self_loops,
            )
        if unknown:
            report(
                "unknown-adjacency-id",
                f"{len(unknown)} area(s) list neighbors that are not in "
                "the dataset",
                unknown,
            )
        if asymmetric:
            report(
                "asymmetric-adjacency",
                f"{len(asymmetric)} area(s) have a neighbor without the "
                "reverse edge",
                asymmetric,
            )
        if bad_weight:
            report(
                "non-finite-weight",
                f"{len(bad_weight)} area(s) have NaN/infinite or "
                "non-numeric adjacency weights",
                bad_weight,
            )
        if negative:
            report(
                "negative-weight",
                f"{len(negative)} area(s) have negative adjacency weights",
                negative,
            )

    return tuple(findings)


# ----------------------------------------------------------------------
# layer 2 — structure scan
# ----------------------------------------------------------------------
def scan_structure(collection, budget=None, decompose=False):
    """Connected-component scan + structure findings.

    Returns ``(components, findings)`` where *components* are sorted
    id tuples ordered by smallest member id (the canonical
    decomposition order). *decompose* says whether the solve this scan
    gates solves each component separately; the
    ``disconnected-geography`` advice follows it. Fires the
    ``preflight.components`` and ``preflight.lint`` fault checkpoints;
    like the feasibility scan, a deadline or cancellation observed
    here is swallowed — the scan is already complete and the exhausted
    budget is re-observed by the construction phase's first
    checkpoint.
    """
    components = tuple(
        tuple(sorted(component))
        for component in sorted(collection.connected_components(), key=min)
    )
    _checkpoint("preflight.components", budget)

    findings: list[Finding] = []
    if len(components) > 1:
        advice = (
            "each island is solved separately"
            if decompose
            else "enable decompose_components to solve each island separately"
        )
        findings.append(
            Finding(
                code="disconnected-geography",
                severity=WARNING,
                message=(
                    f"the contiguity graph has {len(components)} connected "
                    f"components; regions cannot span components — {advice}"
                ),
                ids=_sample(min(c) for c in components),
                data={
                    "n_components": len(components),
                    "sizes": [len(c) for c in components],
                },
            )
        )
        isolated = [c[0] for c in components if len(c) == 1]
        if isolated:
            findings.append(
                Finding(
                    code="isolated-area",
                    severity=WARNING,
                    message=(
                        f"{len(isolated)} area(s) have no neighbors and can "
                        "only ever form singleton regions"
                    ),
                    ids=_sample(isolated),
                    data={"count": len(isolated)},
                )
            )
    _checkpoint("preflight.lint", budget)
    return components, tuple(findings)


def _checkpoint(name: str, budget) -> None:
    from .runtime.budget import Interrupted
    from .runtime.faults import fire_checkpoint

    if budget is None:
        fire_checkpoint(name)
        return
    try:
        budget.checkpoint(name)
    except Interrupted:
        pass


# ----------------------------------------------------------------------
# layer 3 — per-component infeasibility diagnosis
# ----------------------------------------------------------------------
def component_findings(
    collection, constraints, components, feasibility
) -> tuple[Finding, ...]:
    """Relaxation bounds per connected component.

    A region is contiguous, so it lives entirely inside one component
    and contains only valid (non-filtered) areas. A component whose
    valid mass cannot reach a SUM lower bound, whose valid-area count
    is below a COUNT lower bound, or which holds no seed area for the
    MIN/MAX constraints therefore cannot host *any* region — a
    ``component-*`` warning. When **every** component is blocked the
    problem is provably infeasible (``infeasible-components``): this
    is strictly stronger than the global Phase-1 bounds, which sum
    mass across components a region can never straddle.
    """
    findings: list[Finding] = []
    invalid = feasibility.invalid_areas
    seeds = feasibility.seed_areas
    has_extrema = bool(constraints.extrema)
    sum_lowers = [
        c for c in constraints.sums if c.lower > -math.inf and c.lower > 0
    ]
    count_lowers = [c for c in constraints.counts if c.lower > 1]

    blocked = 0
    for index, members in enumerate(components):
        valid = [a for a in members if a not in invalid]
        causes = []
        for c in sum_lowers:
            available = math.fsum(
                collection.attribute(a, c.attribute) for a in valid
            )
            if available < c.lower:
                causes.append(
                    Finding(
                        code="component-sum-deficit",
                        severity=WARNING,
                        message=(
                            f"component {index} ({len(members)} areas) has "
                            f"only {available:g} of {c.attribute} available "
                            f"— {c.lower - available:g} short of {c}; no "
                            "region can form there"
                        ),
                        ids=_sample(members),
                        data={
                            "component": index,
                            "n_areas": len(members),
                            "constraint": str(c),
                            "bound": c.lower,
                            "available": available,
                            "deficit": c.lower - available,
                        },
                    )
                )
        for c in count_lowers:
            if len(valid) < c.lower:
                causes.append(
                    Finding(
                        code="component-count-deficit",
                        severity=WARNING,
                        message=(
                            f"component {index} has {len(valid)} valid "
                            f"area(s), below the lower bound of {c}; no "
                            "region can form there"
                        ),
                        ids=_sample(members),
                        data={
                            "component": index,
                            "n_areas": len(members),
                            "constraint": str(c),
                            "bound": c.lower,
                            "available": float(len(valid)),
                            "deficit": c.lower - len(valid),
                        },
                    )
                )
        if has_extrema and not any(a in seeds for a in valid):
            causes.append(
                Finding(
                    code="component-no-seed",
                    severity=WARNING,
                    message=(
                        f"component {index} ({len(members)} areas) holds no "
                        "seed area for the MIN/MAX constraints; no region "
                        "can form there"
                    ),
                    ids=_sample(members),
                    data={"component": index, "n_areas": len(members)},
                )
            )
        if causes:
            blocked += 1
            findings.extend(causes)

    if components and blocked == len(components):
        findings.append(
            Finding(
                code="infeasible-components",
                severity=ERROR,
                message=(
                    "no connected component can host a valid region (see "
                    "component-* findings for per-constraint deficits); "
                    "the problem is infeasible"
                ),
                data={
                    "n_components": len(components),
                    "n_blocked": blocked,
                },
            )
        )
    return tuple(findings)


def _feasibility_findings(feasibility) -> tuple[Finding, ...]:
    """Lift Phase-1 structured diagnostics into preflight findings."""
    findings = []
    for diag in feasibility.diagnostics:
        data = dict(diag.data)
        if diag.constraint:
            data["constraint"] = diag.constraint
        findings.append(
            Finding(
                code=diag.code,
                severity=diag.severity,
                message=diag.message,
                data=data,
            )
        )
    return tuple(findings)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def build_report(
    collection,
    constraints,
    components,
    structure_findings,
    feasibility,
) -> PreflightReport:
    """Assemble a :class:`PreflightReport` from already-computed parts.

    The solver uses this after running :func:`scan_structure` and the
    Phase-1 scan under its own telemetry spans; :func:`run_preflight`
    is the one-call form for everyone else.
    """
    all_findings = list(structure_findings)
    if feasibility is not None:
        all_findings.extend(_feasibility_findings(feasibility))
        if constraints is not None:
            all_findings.extend(
                component_findings(
                    collection, constraints, components, feasibility
                )
            )
    return PreflightReport(
        findings=tuple(all_findings),
        components=components,
        feasibility=feasibility,
    )


def run_preflight(
    collection, constraints=None, config=None, budget=None, feasibility=None
) -> PreflightReport:
    """Run the full preflight gate over a built collection.

    Structure scan always; constraint diagnosis when *constraints* is
    given (*feasibility* may pass in an already-computed Phase-1
    report — the solver does, so the scan is not repeated). Returns
    the combined :class:`PreflightReport`; call
    :meth:`PreflightReport.raise_if_failed` to enforce it.
    """
    components, findings = scan_structure(
        collection,
        budget=budget,
        decompose=config is not None and config.decompose_components,
    )
    if constraints is not None and feasibility is None:
        from .fact.feasibility import check_feasibility

        feasibility = check_feasibility(
            collection, constraints, config, budget=budget
        )
    return build_report(
        collection, constraints, components, findings, feasibility
    )
