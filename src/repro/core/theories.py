"""The social-science "translation layer" (§3 / Figure 2).

"In future, we plan to provide familiar interfaces to social
scientists, so that they can directly validate theories using
computational platforms ... A translation layer will map the theories
to Spark queries for execution."

This module is that layer: a theory is written as a declarative
hypothesis string —

    "raised ~ has_facebook"            # binary outcome vs binary predictor
    "raised ~ fb_likes > median"       # binary vs thresholded numeric
    "total_funding_usd ~ has_video"    # numeric outcome vs binary predictor

and :class:`TheoryEngine` compiles it into engine jobs over the unified
company fact table, returning effect sizes with significance:

* binary ~ binary → 2×2 contingency, odds ratio, chi-square p-value,
  Wilson CIs per group;
* numeric ~ binary → group means with a Welch t-test.

Predictors may be negated (``~ !has_twitter``) and numeric thresholds
may be ``median`` or a literal (``fb_likes > 500``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.dataframe import DataFrame
from repro.metrics.significance import (Chi2Result, chi_square_2x2,
                                        odds_ratio, wilson_interval)
from repro.util.errors import ConfigError

_HYPOTHESIS_RE = re.compile(
    r"^\s*(?P<outcome>\w+)\s*~\s*(?P<negate>!?)\s*(?P<predictor>\w+)"
    r"\s*(?:(?P<op>[><])\s*(?P<threshold>median|[-\d.]+))?\s*$")


@dataclass
class Hypothesis:
    """A parsed ``outcome ~ predictor [op threshold]`` statement."""

    outcome: str
    predictor: str
    negate: bool = False
    op: Optional[str] = None
    threshold: Optional[str] = None
    text: str = ""

    @classmethod
    def parse(cls, text: str) -> "Hypothesis":
        match = _HYPOTHESIS_RE.match(text)
        if match is None:
            raise ConfigError(
                f"cannot parse hypothesis {text!r}; expected "
                "'outcome ~ predictor', 'outcome ~ !predictor' or "
                "'outcome ~ predictor > median|<number>'")
        return cls(outcome=match["outcome"], predictor=match["predictor"],
                   negate=bool(match["negate"]), op=match["op"],
                   threshold=match["threshold"], text=text.strip())


@dataclass
class GroupStats:
    """Outcome statistics for one predictor group."""

    label: str
    count: int
    outcome_mean: float
    ci_low: float = float("nan")
    ci_high: float = float("nan")


@dataclass
class TheoryResult:
    """The verdict on one hypothesis."""

    hypothesis: str
    kind: str                       # "binary" or "numeric"
    exposed: GroupStats
    control: GroupStats
    effect: float                   # odds ratio / difference in means
    effect_name: str
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05

    def render(self) -> str:
        verdict = "SUPPORTED" if self.significant else "not significant"
        lines = [f"{self.hypothesis}  →  {verdict} (p={self.p_value:.2e})",
                 f"  {self.effect_name}: {self.effect:.3g}"]
        for group in (self.exposed, self.control):
            ci = ""
            if not math.isnan(group.ci_low):
                ci = f"  [{group.ci_low:.4f}, {group.ci_high:.4f}]"
            lines.append(f"  {group.label:<24} n={group.count:<8,} "
                         f"outcome={group.outcome_mean:.4f}{ci}")
        return "\n".join(lines)


class TheoryEngine:
    """Compiles hypotheses into engine jobs over a company fact table."""

    def __init__(self, facts: DataFrame):
        self._facts = facts

    @classmethod
    def over_platform(cls, platform) -> "TheoryEngine":
        from repro.analysis.facts import build_company_facts
        platform.require_crawled()
        return cls(build_company_facts(platform.sc, platform.dfs))

    def test(self, hypothesis_text: str) -> TheoryResult:
        """Evaluate one hypothesis; see the module docstring for syntax."""
        hypothesis = Hypothesis.parse(hypothesis_text)
        rows = self._facts.rdd.cache().collect()
        if not rows:
            raise ConfigError("the fact table is empty")
        self._check_column(rows[0], hypothesis.outcome)
        self._check_column(rows[0], hypothesis.predictor)

        predicate = self._compile_predicate(hypothesis, rows)
        exposed_rows = [r for r in rows if predicate(r)]
        control_rows = [r for r in rows if not predicate(r)]
        if not exposed_rows or not control_rows:
            raise ConfigError(
                f"predictor {hypothesis.predictor!r} does not split the "
                "population (one side is empty)")

        outcome_values = [rows[0][hypothesis.outcome]]
        if isinstance(outcome_values[0], bool):
            return self._binary_outcome(hypothesis, exposed_rows,
                                        control_rows)
        return self._numeric_outcome(hypothesis, exposed_rows, control_rows)

    def test_all(self, hypotheses: List[str]) -> List[TheoryResult]:
        return [self.test(h) for h in hypotheses]

    # ------------------------------------------------------------ internals
    @staticmethod
    def _check_column(sample_row: Dict, name: str) -> None:
        if name not in sample_row:
            known = ", ".join(sorted(sample_row))
            raise ConfigError(f"unknown variable {name!r}; "
                              f"fact columns: {known}")

    def _compile_predicate(self, hyp: Hypothesis,
                           rows: List[Dict]) -> Callable[[Dict], bool]:
        if hyp.op is None:
            base = lambda row: bool(row[hyp.predictor])  # noqa: E731
        else:
            if hyp.threshold == "median":
                cutoff = float(np.median(
                    [float(r[hyp.predictor]) for r in rows]))
            else:
                cutoff = float(hyp.threshold)
            if hyp.op == ">":
                base = lambda row: float(row[hyp.predictor]) > cutoff  # noqa: E731
            else:
                base = lambda row: float(row[hyp.predictor]) < cutoff  # noqa: E731
        if hyp.negate:
            return lambda row: not base(row)
        return base

    def _binary_outcome(self, hyp: Hypothesis, exposed: List[Dict],
                        control: List[Dict]) -> TheoryResult:
        a = sum(1 for r in exposed if r[hyp.outcome])
        b = len(exposed) - a
        c = sum(1 for r in control if r[hyp.outcome])
        d = len(control) - c
        chi: Chi2Result = chi_square_2x2(a, b, c, d)
        exp_lo, exp_hi = wilson_interval(a, len(exposed))
        ctl_lo, ctl_hi = wilson_interval(c, len(control))
        return TheoryResult(
            hypothesis=hyp.text, kind="binary",
            exposed=GroupStats(self._label(hyp, True), len(exposed),
                               a / len(exposed), exp_lo, exp_hi),
            control=GroupStats(self._label(hyp, False), len(control),
                               c / len(control), ctl_lo, ctl_hi),
            effect=odds_ratio(a, b, c, d), effect_name="odds ratio",
            p_value=chi.p_value)

    def _numeric_outcome(self, hyp: Hypothesis, exposed: List[Dict],
                         control: List[Dict]) -> TheoryResult:
        x = np.array([float(r[hyp.outcome]) for r in exposed])
        y = np.array([float(r[hyp.outcome]) for r in control])
        effect = float(x.mean() - y.mean())
        p_value = _welch_t_p(x, y)
        return TheoryResult(
            hypothesis=hyp.text, kind="numeric",
            exposed=GroupStats(self._label(hyp, True), len(x),
                               float(x.mean())),
            control=GroupStats(self._label(hyp, False), len(y),
                               float(y.mean())),
            effect=effect, effect_name="difference in means",
            p_value=p_value)

    @staticmethod
    def _label(hyp: Hypothesis, exposed: bool) -> str:
        core = hyp.predictor
        if hyp.op is not None:
            core = f"{core} {hyp.op} {hyp.threshold}"
        if hyp.negate:
            core = f"!{core}"
        return core if exposed else f"not ({core})"


def _welch_t_p(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided Welch's t-test p-value."""
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        return 1.0
    vx, vy = x.var(ddof=1), y.var(ddof=1)
    se2 = vx / nx + vy / ny
    if se2 <= 0:
        return 1.0
    statistic = (x.mean() - y.mean()) / math.sqrt(se2)
    dof = se2 ** 2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    from scipy.stats import t as student_t
    return float(2.0 * student_t.sf(abs(statistic), df=dof))
