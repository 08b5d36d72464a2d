"""The one-call reproduction summary: paper vs. measured.

:func:`reproduction_summary` runs (or reuses, via the bundle cache)
every headline experiment and lines the measured values up against the
paper's reported ones — the programmatic counterpart of EXPERIMENTS.md
and the quickest way to audit the reproduction end to end:

    python -m repro experiment --figure summary
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.config import PipelineConfig
from repro.errortypes.registry import ErrorTypeRegistry
from repro.experiments.figures import (
    fig3_symptom_sets,
    fig7_platform_validation,
    fig9_trained_total_cost,
    fig10_coverage,
    fig12_hybrid_total_cost,
    fig13_training_time,
)
from repro.experiments.scenario import Scenario
from repro.util.tables import render_table

__all__ = ["SummaryRow", "ReproductionSummary", "reproduction_summary"]


@dataclass(frozen=True)
class SummaryRow:
    """One audited quantity.

    ``shape_holds`` is the reproduction-tolerance verdict.  Where the
    paper states a numeric bound, ``paper_bound_met`` says whether the
    measured value meets it (``None``: no such bound) and ``reason``
    gives the numbers behind both verdicts.
    """

    figure: str
    quantity: str
    paper: str
    measured: str
    shape_holds: bool
    paper_bound_met: Optional[bool] = None
    reason: str = ""


@dataclass(frozen=True)
class ReproductionSummary:
    """All audited quantities plus an overall verdict."""

    rows: Tuple[SummaryRow, ...]

    @property
    def all_shapes_hold(self) -> bool:
        return all(row.shape_holds for row in self.rows)

    def render(self) -> str:
        """The audit table plus the two overall verdict lines."""
        bound_label = {None: "-", True: "met", False: "NOT MET"}
        table = render_table(
            ["figure", "quantity", "paper", "measured", "paper bound",
             "tolerance", "reason"],
            [
                (
                    row.figure,
                    row.quantity,
                    row.paper,
                    row.measured,
                    bound_label[row.paper_bound_met],
                    "OK" if row.shape_holds else "DIVERGES",
                    row.reason,
                )
                for row in self.rows
            ],
            title="Reproduction summary: paper vs measured",
        )
        verdict = (
            "every audited shape holds within the reproduction tolerance"
            if self.all_shapes_hold
            else "SOME SHAPES DIVERGE — see rows marked DIVERGES"
        )
        bounded = [r for r in self.rows if r.paper_bound_met is not None]
        missed = [r.figure for r in bounded if not r.paper_bound_met]
        bounds = f"{len(bounded) - len(missed)} of {len(bounded)} paper bounds met"
        if missed:
            bounds += f"; not met: {', '.join(missed)}"
        return f"{table}\n\n=> {verdict}\n=> {bounds}"


def _verdicts(
    paper: Tuple[float, float],
    tolerance: Tuple[float, float],
    *,
    above: bool,
    fmt: str,
) -> Tuple[bool, bool, str]:
    """``(tolerance met, paper bound met, reason)``, the order of the
    last three :class:`SummaryRow` fields.

    ``paper`` and ``tolerance`` are ``(measured value, limit)`` pairs;
    ``above`` says whether a value must exceed its limit (else stay
    below it).  The reproduction tolerance is looser than the paper.
    """
    op = ">" if above else "<"
    met = [v > limit if above else v < limit for v, limit in (paper, tolerance)]
    reason = "; ".join(
        f"{name}: {v:{fmt}} {'meets' if ok else 'misses'} {op} {limit:{fmt}}"
        for name, (v, limit), ok in zip(
            ("paper", "tolerance"), (paper, tolerance), met
        )
    )
    return met[1], met[0], reason


def reproduction_summary(
    scenario: Scenario,
    *,
    config: Optional[PipelineConfig] = None,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8),
    include_training_time: bool = True,
) -> ReproductionSummary:
    """Audit the headline quantities of every evaluation figure.

    ``include_training_time`` may be disabled to skip the (slow)
    standard-Q-learning arm of Figure 13.
    """
    rows = []

    # Data description.
    registry = ErrorTypeRegistry.from_processes(scenario.clean)
    coverage40 = registry.coverage_of_top(40)
    rows.append(
        SummaryRow(
            "Sec 4.1",
            "top-40 type coverage",
            "98.68%",
            f"{coverage40:.2%}",
            abs(coverage40 - 0.9868) < 0.02,
        )
    )
    noise = scenario.noise.noise_fraction
    rows.append(
        SummaryRow(
            "Sec 3.1",
            "noisy processes filtered",
            "3.33%",
            f"{noise:.2%}",
            0.0 < noise < 0.08,
        )
    )

    # Figure 3.
    curve = fig3_symptom_sets(scenario).curve
    values = [curve[m] for m in sorted(curve)]
    monotone = all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    rows.append(
        SummaryRow(
            "Fig 3",
            "symptom-set coverage at minp=0.1, declining",
            "~0.97, monotone",
            f"{curve[min(curve)]:.3f}, "
            f"{'monotone' if monotone else 'NON-monotone'}",
            curve[min(curve)] > 0.9 and monotone,
        )
    )

    # Figure 7.
    # The paper bounds every type's deviation; the tolerance, the mean.
    validation = fig7_platform_validation(scenario).report
    rows.append(
        SummaryRow(
            "Fig 7",
            "platform mean |est/real - 1|",
            "< 5% (max dev.)",
            f"{validation.mean_deviation:.2%} mean, "
            f"{validation.max_deviation:.2%} max",
            *_verdicts((validation.max_deviation, 0.05),
                       (validation.mean_deviation, 0.06), above=False,
                       fmt=".2%"),
        )
    )

    # Figures 9 and 12.
    trained_totals = fig9_trained_total_cost(
        scenario, fractions, config=config
    ).relative_by_fraction()
    worst_trained = max(trained_totals.values())
    rows.append(
        SummaryRow(
            "Fig 9",
            "trained policy total cost (all 4 tests)",
            "< 0.90 (0.8902 @ 40%)",
            f"max {worst_trained:.4f} "
            f"({trained_totals.get(0.4, float('nan')):.4f} @ 40%)",
            *_verdicts((worst_trained, 0.90), (worst_trained, 0.93),
                       above=False, fmt=".4f"),
        )
    )
    hybrid_totals = fig12_hybrid_total_cost(
        scenario, fractions, config=config
    ).relative_by_fraction()
    worst_hybrid = max(hybrid_totals.values())
    rows.append(
        SummaryRow(
            "Fig 12",
            "hybrid policy total cost (all 4 tests)",
            "< 0.90 (0.8918 @ 40%)",
            f"max {worst_hybrid:.4f} "
            f"({hybrid_totals.get(0.4, float('nan')):.4f} @ 40%)",
            *_verdicts((worst_hybrid, 0.90), (worst_hybrid, 0.95),
                       above=False, fmt=".4f"),
        )
    )

    # Figure 10.
    coverage_result = fig10_coverage(scenario, fractions, config=config)
    minimum_coverage = min(
        min(e.coverages().values()) for e in coverage_result.evaluations
    )
    rows.append(
        SummaryRow(
            "Fig 10",
            "minimum per-type coverage",
            "> 90%",
            f"{minimum_coverage:.2%}",
            *_verdicts((minimum_coverage, 0.90), (minimum_coverage, 0.80),
                       above=True, fmt=".2%"),
        )
    )

    # Figure 13.
    if include_training_time:
        comparison = fig13_training_time(scenario, config=config)
        tree_median = statistics.median(comparison.tree_sweeps.values())
        standard_median = statistics.median(
            comparison.standard_sweeps.values()
        )
        capped = sum(
            1 for c in comparison.standard_converged.values() if not c
        )
        rows.append(
            SummaryRow(
                "Fig 13",
                "tree vs standard sweeps (median); capped courses",
                "40k vs up to 160k; some never converge",
                f"{tree_median:.0f} vs {standard_median:.0f}; "
                f"{capped} capped",
                tree_median * 2 < standard_median,
            )
        )
        rows.append(
            SummaryRow(
                "Fig 14",
                "policy quality with vs without tree",
                "tree reaches optimum; standard spikes above 1",
                f"{comparison.tree_eval.overall_relative_cost:.4f} vs "
                f"{comparison.standard_eval.overall_relative_cost:.4f}",
                comparison.tree_eval.overall_relative_cost
                <= comparison.standard_eval.overall_relative_cost + 0.01,
            )
        )
    return ReproductionSummary(rows=tuple(rows))
