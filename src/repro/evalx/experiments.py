"""One callable per figure/table of the paper's evaluation (Section 5.3).

Each function returns plain data structures (dicts / dataclass rows);
the benchmark harness under ``benchmarks/`` formats them into the same
rows and series the paper plots, and EXPERIMENTS.md records paper-vs-
measured values.

==============  =====================================================
paper artifact  function
==============  =====================================================
Figure 6        :func:`event_frequency` (all accesses)
Figure 7        :func:`handcrafted_recall` (all accesses)
Figure 8        :func:`event_frequency` (first accesses)
Figure 9        :func:`handcrafted_recall` (first accesses)
Figures 10-11   :func:`group_composition`
Figure 12       :func:`group_predictive_power`
Figure 13       :func:`mining_performance`
Figure 14       :func:`mined_predictive_power`
Table 1         :func:`template_stability`
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..audit.handcrafted import (
    dataset_a_doctor_templates,
    group_templates,
    repeat_access_template,
    same_department_templates,
)
from ..api.config import AuditConfig
from ..api.service import AuditService
from ..core.mining import (
    BridgedMiner,
    MiningConfig,
    MiningResult,
    OneWayMiner,
    TwoWayMiner,
)
from ..db.database import Database
from ..ehr.schema import DATASET_A, build_careweb_graph
from .accesses import (
    lids_on_days,
    lids_with_events,
    repeat_access_lids,
    restrict_log,
)
from .metrics import PrecisionRecall, score_explained
from .study import CareWebStudy

#: Evaluation opens services purely as template evaluators: no template
#: set at open time, no eager warm-up (templates are scored one by one).
_EVAL_CONFIG = AuditConfig(eager_warm=False)


# ----------------------------------------------------------------------
# Figures 6 and 8: frequency of events in the database
# ----------------------------------------------------------------------
def event_frequency(
    db: Database,
    lids: set | None = None,
    event_tables: Sequence[str] = DATASET_A,
    include_repeat: bool = True,
) -> dict[str, float]:
    """Fraction of (selected) accesses whose patient has an event of each
    kind, plus structural repeat accesses and the union — the bars of
    Figure 6 (all accesses) and Figure 8 (first accesses, no repeat bar).
    """
    log = db.table("Log")
    lid_i = log.schema.column_index("Lid")
    patient_i = log.schema.column_index("Patient")
    selected = (
        [r for r in log.rows() if r[lid_i] in lids]
        if lids is not None
        else list(log.rows())
    )
    total = len(selected)
    if total == 0:
        return {}
    out: dict[str, float] = {}
    union_lids: set = set()
    for table in event_tables:
        patients = db.table(table).distinct_values("Patient")
        explained = {r[lid_i] for r in selected if r[patient_i] in patients}
        label = {"Appointments": "Appt", "Visits": "Visit", "Documents": "Document"}.get(
            table, table
        )
        out[label] = len(explained) / total
        union_lids |= explained
    if include_repeat:
        repeats = repeat_access_lids(db)
        selected_repeats = {r[lid_i] for r in selected} & repeats
        out["Repeat Access"] = len(selected_repeats) / total
        union_lids |= selected_repeats
    out["All"] = len(union_lids) / total
    return out


# ----------------------------------------------------------------------
# Figures 7 and 9: hand-crafted explanation recall
# ----------------------------------------------------------------------
def handcrafted_recall(
    db: Database,
    lids: set | None = None,
    include_repeat: bool = True,
) -> dict[str, float]:
    """Recall of the hand-crafted templates (Appt/Visit/Doc w/Dr., Repeat
    Access) over the selected accesses — Figures 7 and 9."""
    graph = build_careweb_graph(db)
    log = db.table("Log")
    all_lids = log.distinct_values("Lid")
    selected = all_lids if lids is None else (lids & all_lids)
    total = len(selected)
    if total == 0:
        return {}
    service = AuditService.open(db, templates=(), config=_EVAL_CONFIG)
    labels = {
        "Appointments": "Appt w/Dr.",
        "Visits": "Visit w/Dr.",
        "Documents": "Doc. w/Dr.",
    }
    out: dict[str, float] = {}
    union: set = set()
    for template in dataset_a_doctor_templates(graph):
        explained = service.explained_lids(template) & selected
        table = next(iter(template.tables_referenced() - {"Log"}))
        out[labels[table]] = len(explained) / total
        union |= explained
    if include_repeat:
        explained = service.explained_lids(repeat_access_template(graph)) & selected
        out["Repeat Access"] = len(explained) / total
        union |= explained
    out["All w/Dr."] = len(union) / total
    return out


# ----------------------------------------------------------------------
# Figures 10-11: collaborative-group composition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupProfile:
    """Department-code histogram of one discovered group (Figs 10-11)."""
    group_id: int
    size: int
    departments: tuple[tuple[str, int], ...]  # (dept code, member count) desc

    def top_departments(self, n: int = 8) -> list[tuple[str, int]]:
        """The ``n`` most frequent department codes in the group."""
        return list(self.departments[:n])


def group_composition(
    study: CareWebStudy, depth: int = 1, top_groups: int = 2
) -> list[GroupProfile]:
    """Department-code histograms of the largest depth-``depth`` groups —
    the pie charts of Figures 10-11."""
    dept_of = {
        row[0]: row[1] for row in study.db.table("Users").rows()
    }
    groups = study.hierarchy.groups_at(depth)
    largest = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    profiles = []
    for gid, members in largest[:top_groups]:
        histogram: dict[str, int] = {}
        for user in members:
            dept = dept_of.get(user, "Unknown")
            histogram[dept] = histogram.get(dept, 0) + 1
        ranked = tuple(
            sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        profiles.append(
            GroupProfile(group_id=gid, size=len(members), departments=ranked)
        )
    return profiles


# ----------------------------------------------------------------------
# Figure 12: group predictive power by hierarchy depth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DepthRow:
    """One bar group of Figure 12 (a hierarchy depth or the baseline)."""
    label: str  # "0".."8" or "Same Dept."
    scores: PrecisionRecall


def group_predictive_power(
    study: CareWebStudy,
    tables: tuple[str, ...] = DATASET_A,
    max_depth: int | None = None,
) -> list[DepthRow]:
    """Precision/recall/normalized-recall of group-based hand-crafted
    templates per hierarchy depth, plus the Same-Dept. baseline —
    trained on days 1-6, tested on day-7 first accesses with the fake log
    (exactly the Figure 12 protocol)."""
    combined, _real, fake_lids = study.combined_db()
    graph = build_careweb_graph(combined)
    service = AuditService.open(combined, templates=(), config=_EVAL_CONFIG)
    test = study.test_first_lids()
    with_events = lids_with_events(study.db, tables) & test
    depths = range(
        0,
        (study.hierarchy.max_depth if max_depth is None else max_depth) + 1,
    )
    rows: list[DepthRow] = []
    for depth in depths:
        explained: set = set()
        for template in group_templates(graph, depth=depth, tables=tables):
            explained |= service.explained_lids(template)
        rows.append(
            DepthRow(
                label=str(depth),
                scores=score_explained(explained, test, fake_lids, with_events),
            )
        )
    explained = set()
    for template in same_department_templates(graph, tables=tables):
        explained |= service.explained_lids(template)
    rows.append(
        DepthRow(
            label="Same Dept.",
            scores=score_explained(explained, test, fake_lids, with_events),
        )
    )
    return rows


# ----------------------------------------------------------------------
# Figure 13: mining performance
# ----------------------------------------------------------------------
def mining_performance(
    study: CareWebStudy,
    config: MiningConfig | None = None,
    bridge_lengths: tuple[int, ...] = (2, 3, 4),
) -> dict[str, MiningResult]:
    """Run one-way, two-way, and Bridge-l miners on the training-days
    first accesses; returns full results (cumulative times feed the
    Figure 13 series)."""
    config = config or MiningConfig(support_fraction=0.01, max_length=5, max_tables=3)
    db = study.mining_db()
    graph = study.mining_graph()
    results: dict[str, MiningResult] = {}
    one = OneWayMiner(db, graph, config)
    results[one.algorithm] = one.mine()
    two = TwoWayMiner(db, graph, config)
    results[two.algorithm] = two.mine()
    for ell in bridge_lengths:
        bridged = BridgedMiner(db, graph, config, bridge_length=ell)
        results[bridged.algorithm] = bridged.mine()
    return results


# ----------------------------------------------------------------------
# Figure 14: predictive power of mined templates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LengthRow:
    """One bar group of Figure 14 (templates of one length)."""
    label: str  # "2", "3", "4", ..., "All"
    n_templates: int
    scores: PrecisionRecall


def mined_predictive_power(
    study: CareWebStudy,
    mining_result: MiningResult | None = None,
    config: MiningConfig | None = None,
) -> list[LengthRow]:
    """Evaluate mined templates (trained on days 1-6 first accesses) on
    day-7 first accesses with the fake log, grouped by template length —
    Figure 14."""
    if mining_result is None:
        config = config or MiningConfig(
            support_fraction=0.01, max_length=4, max_tables=3
        )
        mining_result = OneWayMiner(study.mining_db(), study.mining_graph(), config).mine()
    combined, _real, fake_lids = study.combined_db()
    service = AuditService.open(combined, templates=(), config=_EVAL_CONFIG)
    test = study.test_first_lids()
    with_events = lids_with_events(study.db) & test
    by_length = mining_result.templates_by_length()
    rows: list[LengthRow] = []
    union_all: set = set()
    for length in sorted(by_length):
        explained: set = set()
        for mined in by_length[length]:
            explained |= service.explained_lids(mined.template)
        union_all |= explained
        rows.append(
            LengthRow(
                label=str(length),
                n_templates=len(by_length[length]),
                scores=score_explained(explained, test, fake_lids, with_events),
            )
        )
    rows.append(
        LengthRow(
            label="All",
            n_templates=len(mining_result.templates),
            scores=score_explained(union_all, test, fake_lids, with_events),
        )
    )
    return rows


# ----------------------------------------------------------------------
# Table 1: stability of mined templates across time periods
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StabilityResult:
    """Template counts per (period, length) plus cross-period commons."""

    periods: tuple[str, ...]
    counts: dict[tuple[str, int], int]  # (period, length) -> n templates
    common: dict[int, int]  # length -> templates present in every period

    def lengths(self) -> list[int]:
        """Template lengths observed in any period, sorted."""
        return sorted({length for _, length in self.counts})


def template_stability(
    study: CareWebStudy,
    periods: dict[str, Iterable[int]] | None = None,
    config: MiningConfig | None = None,
) -> StabilityResult:
    """Mine each time period separately and count common templates —
    Table 1 ("Days 1-6", "Day 1", "Day 3", "Day 7")."""
    if periods is None:
        periods = {
            "Days 1-6": study.train_days,
            "Day 1": [1],
            "Day 3": [3],
            f"Day {study.test_day}": [study.test_day],
        }
    config = config or MiningConfig(support_fraction=0.01, max_length=4, max_tables=3)
    firsts = study.first_lids()
    counts: dict[tuple[str, int], int] = {}
    sigs_by_period: dict[str, dict[int, set]] = {}
    for name, days in periods.items():
        lids = lids_on_days(study.db, days) & firsts
        db = restrict_log(study.db, lids, name=f"stability-{name}")
        graph = build_careweb_graph(db)
        result = OneWayMiner(db, graph, config).mine()
        per_length: dict[int, set] = {}
        for mined in result.templates:
            per_length.setdefault(mined.length, set()).add(
                mined.template.signature()
            )
        sigs_by_period[name] = per_length
        for length, sigs in per_length.items():
            counts[(name, length)] = len(sigs)
    common: dict[int, int] = {}
    all_lengths = {length for per in sigs_by_period.values() for length in per}
    for length in all_lengths:
        shared: set | None = None
        for per in sigs_by_period.values():
            sigs = per.get(length, set())
            shared = sigs if shared is None else (shared & sigs)
        common[length] = len(shared or set())
    return StabilityResult(
        periods=tuple(periods), counts=counts, common=common
    )


# ----------------------------------------------------------------------
# headline: overall coverage ("over 94% of accesses")
# ----------------------------------------------------------------------
def overall_coverage(study: CareWebStudy, group_depth: int = 1) -> float:
    """Fraction of all accesses explained by appointments, visits,
    documents, repeat accesses, and depth-``group_depth`` collaborative
    groups — the paper's headline number (Section 5.3.2: "we are able to
    explain over 94% of all accesses").
    """
    graph = study.graph
    templates = dataset_a_doctor_templates(graph)
    templates.append(repeat_access_template(graph))
    templates.extend(group_templates(graph, depth=group_depth))
    # One set-at-a-time pass through the public API: opening the service
    # warms the aggregates via one batch semijoin per template
    # (ExplanationEngine.explain_all under the hood).
    with AuditService.open(study.db, templates=templates) as service:
        return service.coverage()
