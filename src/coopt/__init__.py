"""Cooperating heterogeneous solvers over a message-passing scheduler."""

from coopt.core import (
    Domain,
    Evaluation,
    Problem,
    VarKind,
    dominates,
    evaluate_model,
)

__all__ = [
    "Domain",
    "Evaluation",
    "Problem",
    "VarKind",
    "dominates",
    "evaluate_model",
]

__version__ = "0.1.0"
