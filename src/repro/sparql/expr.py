"""The expression evaluator.

``evaluate`` maps an AST expression plus a solution binding to a term (or
``None`` for unbound-producing constructs); SPARQL type errors surface as
:class:`~repro.errors.ExpressionError` and are handled at the FILTER /
BIND / aggregate boundaries by the executor.

``EXISTS`` runs a nested group through an :class:`EvalContext` callback
(the test suite's tuple-at-a-time oracle gives one); the batched executor
lifts it out first, so without one it is an engine fault no FILTER reads
as false (not an ExpressionError).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ExpressionError, QueryEvaluationError
from ..rdf.terms import Term, Variable, typed_literal
from .ast import AggregateExpr, AndExpr, ArithExpr, CompareExpr, ExistsExpr, \
    Expression, FuncCall, GroupPattern, InExpr, NegExpr, NotExpr, OrExpr, \
    TermExpr, VarExpr
from .functions import LAZY_BUILTINS, call_builtin
from .values import compare, ebv, equals, numeric_result, to_number

__all__ = ["EvalContext", "evaluate", "evaluate_ebv"]

Binding = dict[Variable, Term]


class EvalContext:
    """Evaluation services an expression may need beyond its binding.

    ``exists`` is a callback ``(group, binding) -> bool``, given by a
    tuple-at-a-time evaluator; expressions without EXISTS never touch it.
    """

    __slots__ = ("exists",)

    def __init__(self, exists: Callable[[GroupPattern, Binding], bool] | None
                 = None) -> None:
        self.exists = exists


_EMPTY_CONTEXT = EvalContext()


def evaluate(expr: Expression, binding: Binding,
             ctx: EvalContext | None = None) -> Optional[Term]:
    """Evaluate ``expr`` under ``binding``; may raise ExpressionError."""
    if ctx is None:
        ctx = _EMPTY_CONTEXT
    if isinstance(expr, VarExpr):
        return binding.get(expr.var)
    if isinstance(expr, TermExpr):
        return expr.term
    if isinstance(expr, OrExpr):
        return _logical_or(expr, binding, ctx)
    if isinstance(expr, AndExpr):
        return _logical_and(expr, binding, ctx)
    if isinstance(expr, NotExpr):
        return typed_literal(not ebv(evaluate(expr.operand, binding, ctx)))
    if isinstance(expr, CompareExpr):
        left = evaluate(expr.left, binding, ctx)
        right = evaluate(expr.right, binding, ctx)
        return typed_literal(compare(expr.op, left, right))
    if isinstance(expr, ArithExpr):
        return _arith(expr, binding, ctx)
    if isinstance(expr, NegExpr):
        value = to_number(evaluate(expr.operand, binding, ctx))
        return numeric_result(-value)
    if isinstance(expr, InExpr):
        return _in(expr, binding, ctx)
    if isinstance(expr, FuncCall):
        return _call(expr, binding, ctx)
    if isinstance(expr, ExistsExpr):
        if ctx.exists is None:
            raise QueryEvaluationError("EXISTS outside an executor context")
        found = ctx.exists(expr.group, binding)
        return typed_literal(not found if expr.negated else found)
    if isinstance(expr, AggregateExpr):
        raise ExpressionError(
            "aggregate evaluated outside GROUP BY context (did the algebra "
            "translation miss it?)")
    raise ExpressionError(f"unknown expression node {type(expr).__name__}")


def evaluate_ebv(expr: Expression, binding: Binding,
                 ctx: EvalContext | None = None) -> bool:
    """FILTER semantics: evaluate to effective boolean, errors become False."""
    try:
        return ebv(evaluate(expr, binding, ctx))
    except ExpressionError:
        return False


def _logical_or(expr: OrExpr, binding: Binding, ctx: EvalContext) -> Term:
    left_error: ExpressionError | None = None
    try:
        if ebv(evaluate(expr.left, binding, ctx)):
            return typed_literal(True)
    except ExpressionError as exc:
        left_error = exc
    try:
        if ebv(evaluate(expr.right, binding, ctx)):
            return typed_literal(True)
    except ExpressionError:
        raise
    if left_error is not None:
        raise left_error
    return typed_literal(False)


def _logical_and(expr: AndExpr, binding: Binding, ctx: EvalContext) -> Term:
    left_error: ExpressionError | None = None
    try:
        if not ebv(evaluate(expr.left, binding, ctx)):
            return typed_literal(False)
    except ExpressionError as exc:
        left_error = exc
    try:
        if not ebv(evaluate(expr.right, binding, ctx)):
            return typed_literal(False)
    except ExpressionError:
        raise
    if left_error is not None:
        raise left_error
    return typed_literal(True)


def _arith(expr: ArithExpr, binding: Binding, ctx: EvalContext) -> Term:
    left_term = evaluate(expr.left, binding, ctx)
    right_term = evaluate(expr.right, binding, ctx)
    left = to_number(left_term)
    right = to_number(right_term)
    if expr.op == "+":
        return numeric_result(left + right)
    if expr.op == "-":
        return numeric_result(left - right)
    if expr.op == "*":
        return numeric_result(left * right)
    if expr.op == "/":
        if right == 0:
            raise ExpressionError("division by zero")
        return numeric_result(left / right)
    raise ExpressionError(f"unknown arithmetic operator {expr.op!r}")


def _in(expr: InExpr, binding: Binding, ctx: EvalContext) -> Term:
    operand = evaluate(expr.operand, binding, ctx)
    pending_error: ExpressionError | None = None
    found = False
    for option in expr.options:
        try:
            if equals(operand, evaluate(option, binding, ctx)):
                found = True
                break
        except ExpressionError as exc:
            pending_error = exc
    if not found and pending_error is not None:
        raise pending_error
    result = found if not expr.negated else not found
    return typed_literal(result)


def _call(expr: FuncCall, binding: Binding, ctx: EvalContext) -> Optional[Term]:
    name = expr.name
    if name in LAZY_BUILTINS:
        if name == "BOUND":
            if len(expr.args) != 1 or not isinstance(expr.args[0], VarExpr):
                raise ExpressionError("BOUND requires a single variable")
            return typed_literal(expr.args[0].var in binding
                                 and binding[expr.args[0].var] is not None)
        if name == "IF":
            if len(expr.args) != 3:
                raise ExpressionError("IF requires three arguments")
            condition = ebv(evaluate(expr.args[0], binding, ctx))
            chosen = expr.args[1] if condition else expr.args[2]
            return evaluate(chosen, binding, ctx)
        if name == "COALESCE":
            for arg in expr.args:
                try:
                    value = evaluate(arg, binding, ctx)
                except ExpressionError:
                    continue
                if value is not None:
                    return value
            raise ExpressionError("COALESCE: all arguments errored/unbound")
    args = [evaluate(a, binding, ctx) for a in expr.args]
    return call_builtin(name, args)
