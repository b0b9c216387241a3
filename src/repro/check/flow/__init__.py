"""Whole-program flow analysis for reprolint (docs/FLOWCHECK.md).

Layers a project-wide symbol table, a class-hierarchy-aware call
graph, and interprocedural fixpoints on top of the per-file lint
framework, powering the ``--deep`` rules: ``determinism-taint``,
``shared-state-race``, and ``exception-escape``.  See docs/FLOWCHECK.md
for the engine design, the source/sink/boundary tables, and the
annotation workflow.
"""

from .engine import FlowProgram
from .rules import (DeterminismTaintRule, ExceptionEscapeRule, FlowRule,
                    SharedStateRaceRule, flow_rule_ids)
from .symbols import SymbolTable, comment_tokens

__all__ = [
    "FlowProgram",
    "FlowRule",
    "DeterminismTaintRule",
    "SharedStateRaceRule",
    "ExceptionEscapeRule",
    "flow_rule_ids",
    "SymbolTable",
    "comment_tokens",
]
