"""ulsan — repo-specific static analysis for the ulsocks codebase.

A token-level multi-rule lint framework (the generalization of the old
``lint_coro_captures.py``) guarding the properties this repository's
correctness argument rests on: determinism (byte-identical digests across
shard counts and pool modes), shard affinity (per-shard pools and
engines), coroutine lifetime, the inter-library include DAG, and wire
format hygiene.

Run ``python3 -m ulsan src`` from the repository root, or see
``python3 -m ulsan --help``.  DESIGN.md §12 documents the rule catalogue
and the suppression/baseline policy.
"""

__version__ = "1.0"

from .framework import (Baseline, Finding, Rule, RunResult, all_rules,  # noqa: F401
                        run)
