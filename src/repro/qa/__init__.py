"""repro.qa — generative testing, differential oracles, statistical gates.

The qa subsystem adversarially probes every estimation layer with seeded
random workloads: exact joins against each other, every registered
estimator against its contracts, batched against sequential kernels,
cached against uncached paths, the service against direct calls, plus
metamorphic invariants, parser/validator fuzzing, and the paper's
unbiasedness/concentration guarantees as statistical gates.

Entry points:

* ``python -m repro qa --budget-s N --seed S [--report out.json]``
* :func:`repro.qa.run_qa` / :func:`repro.qa.replay` in-process
* ``docs/TESTING.md`` for the tier layout and reproducer workflow
"""

from repro.qa.generators import Case, random_case, random_document
from repro.qa.oracles import ORACLES, OracleFailure
from repro.qa.runner import (
    QA_REPORT_SCHEMA_VERSION,
    Finding,
    replay,
    replay_file,
    run_qa,
)
from repro.qa.shrink import shrink_case
from repro.qa.stats import GateResult, run_statistical_gates

__all__ = [
    "Case",
    "Finding",
    "GateResult",
    "ORACLES",
    "OracleFailure",
    "QA_REPORT_SCHEMA_VERSION",
    "random_case",
    "random_document",
    "replay",
    "replay_file",
    "run_qa",
    "run_statistical_gates",
    "shrink_case",
]
