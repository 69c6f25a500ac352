"""Built-in lint rules: importing this package registers them.

Each rule registers with :mod:`repro.lint.registry` at import time,
the way every other registry registers its built-ins.  Every rule
checks one parsed file at a time.
"""

from __future__ import annotations

from repro.lint.registry import register_rule
from repro.lint.rules.error_taxonomy import ErrorTaxonomyRule
from repro.lint.rules.rng_discipline import RngDisciplineRule
from repro.lint.rules.stateful_attack import StatefulAttackRule

__all__ = [
    "RngDisciplineRule",
    "ErrorTaxonomyRule",
    "StatefulAttackRule",
]

register_rule(RngDisciplineRule.name, RngDisciplineRule)
register_rule(ErrorTaxonomyRule.name, ErrorTaxonomyRule)
register_rule(StatefulAttackRule.name, StatefulAttackRule)
