"""Built-in lint rules: importing this package registers them.

Each rule registers with :mod:`repro.lint.registry` at import time,
the way every other registry registers its built-ins.  Module-local
rules check one file at a time; the project-scoped rules
(registry-drift, seeded-query-purity, rng-stream-order,
loop-batched-pairing) run once per lint run against the whole-program :class:`~repro.lint.project.ProjectContext`.
"""

from __future__ import annotations

from repro.lint.registry import register_rule
from repro.lint.rules.backend_purity import BackendPurityRule
from repro.lint.rules.error_taxonomy import ErrorTaxonomyRule
from repro.lint.rules.loop_batched_pairing import LoopBatchedPairingRule
from repro.lint.rules.registry_drift import RegistryDriftRule
from repro.lint.rules.rng_discipline import RngDisciplineRule
from repro.lint.rules.rng_stream_order import RngStreamOrderRule
from repro.lint.rules.seeded_query_purity import SeededQueryPurityRule
from repro.lint.rules.stateful_attack import StatefulAttackRule

__all__ = [
    "BackendPurityRule",
    "RngDisciplineRule",
    "ErrorTaxonomyRule",
    "StatefulAttackRule",
    "RegistryDriftRule",
    "SeededQueryPurityRule",
    "RngStreamOrderRule",
    "LoopBatchedPairingRule",
]

register_rule(BackendPurityRule.name, BackendPurityRule)
register_rule(RngDisciplineRule.name, RngDisciplineRule)
register_rule(ErrorTaxonomyRule.name, ErrorTaxonomyRule)
register_rule(StatefulAttackRule.name, StatefulAttackRule)
register_rule(RegistryDriftRule.name, RegistryDriftRule)
register_rule(SeededQueryPurityRule.name, SeededQueryPurityRule)
register_rule(RngStreamOrderRule.name, RngStreamOrderRule)
register_rule(LoopBatchedPairingRule.name, LoopBatchedPairingRule)
