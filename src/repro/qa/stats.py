"""Statistical-guarantee gates for the sampling estimators.

Two families of gate, both seeded and therefore deterministic in CI:

**Unbiasedness** (Theorems 3 and 4).  Over ``T`` independent trials the
trial mean of an unbiased estimator is approximately normal by the CLT,
so ``z = (mean - exact) * sqrt(T) / std`` should fall inside the
two-sided 99% acceptance region ``|z| < 2.576``.  A correct estimator
fails such a gate with probability 1% *per fresh seed*; with the seed
pinned the gate either always passes or has found a real bias, which is
exactly the determinism CI needs.  Trial counts are documented in
:data:`UNBIASEDNESS_TRIALS`.

**Concentration** (Hoeffding bounds behind Theorems 3 and 4).  Each
IM trial is ``|D| * mean(m stab counts in [0, H])`` and each PM trial is
``w * mean(m products in [0, H])``, where ``H`` is the maximum stabbing
number of the ancestor family.  Hoeffding (and Serfling's refinement for
IM's without-replacement draw) gives

    P(|X_hat - X| >= scale * t) <= 2 * exp(-2 m t^2 / H^2) = delta

with ``scale = |D|`` (IM) or ``w`` (PM).  The gate inverts the bound at
``delta = 0.01``, counts trials whose error exceeds ``scale * t``, and
accepts while the empirical violation count stays below a binomial
99.9% upper envelope of ``delta * T`` — so a sound bound passes
deterministically while an estimator whose tails are heavier than the
theorem promises is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.nodeset import NodeSet
from repro.core.workspace import Workspace
from repro.estimators.registry import make_estimator
from repro.join import containment_join_size
from repro.qa.generators import disjoint_operands, random_case

#: Two-sided 99% CLT acceptance threshold for the unbiasedness z-test.
Z_CRITICAL_99 = 2.576

#: Trials per unbiasedness gate.  400 keeps the z-test's normal
#: approximation comfortable and runs in well under a second through the
#: batched ``estimate_trials`` path.
UNBIASEDNESS_TRIALS = 400

#: Trials per concentration gate and the bound's failure probability.
CONCENTRATION_TRIALS = 200
CONCENTRATION_DELTA = 0.01

#: Sample size m used inside each trial.
GATE_SAMPLES = 25

#: Workload seeds the gates run on (generated via random_case with
#: larger documents, then disjointified).  Chosen so the join stays
#: dense after removing shared elements (exact sizes 98 and 80 with
#: |D| ~ 94-133 >> m): a sparse join makes the trial distribution a
#: rare-event distribution and the z-test meaningless at any trial
#: count, and a too-small |D| degenerates IM into the exact full sample.
GATE_CASE_SEEDS = (1060, 1262)
GATE_CASE_NODES = 220


@dataclass
class GateResult:
    """Outcome of one statistical gate on one workload."""

    gate: str
    method: str
    case_seed: int
    passed: bool
    statistic: float
    threshold: float
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "gate": self.gate,
            "method": self.method,
            "case_seed": self.case_seed,
            "passed": self.passed,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _stabbing_height(ancestors: NodeSet) -> int:
    """Maximum stabbing number H of the ancestor interval family.

    The maximum over the continuum is attained at some interval start,
    so probing the starts suffices.
    """
    return int(ancestors.stab_counts(ancestors.starts).max(initial=0))


def _gate_workload(
    case_seed: int,
) -> tuple[NodeSet, NodeSet, Workspace, int]:
    """Disjoint gate operands plus the exact join size.

    Theorems 3 and 4 are stated for the paper's model where A and D come
    from different predicates; with a shared element the estimators
    count the self-stab the strict join excludes, so unbiasedness only
    holds on disjoint operands (see
    :func:`repro.qa.generators.disjoint_operands`).
    """
    case = random_case(case_seed, max_nodes=GATE_CASE_NODES)
    ancestors, descendants = disjoint_operands(case)
    exact = containment_join_size(ancestors, descendants)
    return ancestors, descendants, case.workspace, exact


def _trial_values(
    method: str,
    ancestors: NodeSet,
    descendants: NodeSet,
    workspace: Workspace,
    trials: int,
    seed: int,
) -> np.ndarray:
    estimator = make_estimator(
        method, num_samples=GATE_SAMPLES, seed=seed
    )
    results = estimator.estimate_trials(
        ancestors, descendants, trials, workspace
    )
    return np.array([r.value for r in results], dtype=float)


def unbiasedness_gate(
    method: str, case_seed: int, trials: int = UNBIASEDNESS_TRIALS
) -> GateResult:
    """CLT z-test that the trial mean matches the exact join size."""
    ancestors, descendants, workspace, exact = _gate_workload(case_seed)
    values = _trial_values(
        method,
        ancestors,
        descendants,
        workspace,
        trials,
        seed=case_seed ^ 0xA11CE,
    )
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    if std == 0.0:
        # Degenerate sampling (m >= |D| or constant counts): the only
        # unbiased constant is the exact size itself.
        passed = mean == float(exact)
        statistic = 0.0 if passed else math.inf
    else:
        statistic = abs(mean - exact) * math.sqrt(trials) / std
        passed = statistic < Z_CRITICAL_99
    return GateResult(
        gate="unbiasedness",
        method=method,
        case_seed=case_seed,
        passed=passed,
        statistic=statistic,
        threshold=Z_CRITICAL_99,
        detail={
            "trials": trials,
            "samples_per_trial": GATE_SAMPLES,
            "exact": exact,
            "trial_mean": mean,
            "trial_std": std,
        },
    )


def concentration_gate(
    method: str,
    case_seed: int,
    trials: int = CONCENTRATION_TRIALS,
    delta: float = CONCENTRATION_DELTA,
) -> GateResult:
    """Empirical check of the Hoeffding concentration bound for IM/PM."""
    if method not in ("IM", "PM"):
        raise ValueError(f"concentration gate covers IM/PM, not {method}")
    a, d, w, exact = _gate_workload(case_seed)
    height = max(1, _stabbing_height(a))
    scale = len(d) if method == "IM" else w.width
    # Invert 2*exp(-2 m t^2 / H^2) = delta for the per-sample mean
    # deviation t, then widen to the estimate's scale.
    t = height * math.sqrt(math.log(2.0 / delta) / (2.0 * GATE_SAMPLES))
    epsilon = scale * t
    values = _trial_values(
        method, a, d, w, trials, seed=case_seed ^ 0xB0B
    )
    violations = int(np.count_nonzero(np.abs(values - exact) > epsilon))
    # Binomial 99.9% envelope around delta*T: a sound bound stays under
    # it; heavier-than-promised tails pile up violations far above it.
    expected = delta * trials
    allowed = math.ceil(
        expected + 3.29 * math.sqrt(expected * (1.0 - delta)) + 1.0
    )
    return GateResult(
        gate="concentration",
        method=method,
        case_seed=case_seed,
        passed=violations <= allowed,
        statistic=float(violations),
        threshold=float(allowed),
        detail={
            "trials": trials,
            "samples_per_trial": GATE_SAMPLES,
            "delta": delta,
            "epsilon": epsilon,
            "height": height,
            "scale": int(scale),
            "exact": exact,
        },
    )


def run_statistical_gates(
    methods: tuple[str, ...] = ("IM", "PM"),
    case_seeds: tuple[int, ...] = GATE_CASE_SEEDS,
) -> list[GateResult]:
    """All unbiasedness + concentration gates over the gate workloads."""
    results = []
    for case_seed in case_seeds:
        for method in methods:
            results.append(unbiasedness_gate(method, case_seed))
            results.append(concentration_gate(method, case_seed))
    return results
