"""backend-purity: kernel code speaks ArrayBackend, never raw numpy.

The PR 4 backend seam rests on a convention: inside the batched kernel
layer every array operation goes through the resolved
:class:`~repro.backend.ArrayBackend` namespace (``xp``), because a stray
``np.*`` call either breaks on torch inputs or silently round-trips a
device tensor through the host — and a float-dtype literal
(``np.float64``, ``dtype="float32"``) re-introduces the up-cast bugs the
PR 4 "float64-literal / np.empty audit" removed by hand.  This rule
makes that audit permanent.

Scope — only the four kernel modules, and within them only *kernel
scope*:

* functions with a ``backend`` or ``xp`` parameter (the kernel calling
  convention), including anything lexically nested in them;
* methods of ``BatchedAggregator`` subclasses, **except** classes that
  declare ``is_native = False`` in their body — that marker is the
  existing loop-fallback contract ("executes the per-scenario numpy
  rules"), which is numpy-only by design.

Host-side bookkeeping stays legal: integer/bool dtype references
(``np.int64``, selected-index arrays are host-side by the
``BatchedAggregationResult`` contract) and staging calls that pin an
explicit integer dtype (``np.asarray(..., dtype=np.int64)``).  A bare
``np.asarray(x)`` in kernel scope is flagged — that is precisely the
float64 up-cast shape.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.base import LintRule, ModuleContext
from repro.lint.findings import Finding

__all__ = ["BackendPurityRule"]

#: The modules whose batched kernels are backend-parametric.
KERNEL_MODULES = (
    "repro/core/batched.py",
    "repro/core/bulyan.py",
    "repro/baselines/medians.py",
    "repro/utils/linalg.py",
)

_INT_DTYPE_ATTRS = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "uint8", "uint16",
     "uint32", "uint64", "bool_"}
)
_INT_DTYPE_STRINGS = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "uint8", "uint16",
     "uint32", "uint64", "bool"}
)
#: numpy attributes legal in kernel scope: integer/bool dtype handles
#: and type references for annotations/isinstance.
_ALLOWED_ATTRS = _INT_DTYPE_ATTRS | {"ndarray", "integer", "dtype"}
#: Host-staging constructors, legal only with an explicit integer dtype.
_STAGING_CALLS = frozenset(
    {"asarray", "array", "empty", "zeros", "ones", "full", "stack",
     "concatenate"}
)
_FLOAT_DTYPE_STRINGS = frozenset(
    {"float16", "float32", "float64", "float128", "complex64",
     "complex128"}
)
_FLOAT_DTYPE_ATTRS = frozenset(
    {"float16", "float32", "float64", "float128", "half", "single",
     "double", "longdouble"}
)
_KERNEL_PARAMS = ("backend", "xp")


def _numpy_aliases(tree: ast.Module) -> set[str]:
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _function_params(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = node.args
    every = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return {arg.arg for arg in every}


def _is_loop_fallback(node: ast.ClassDef) -> bool:
    """``is_native = False`` in the class body — the loop-fallback marker."""
    for statement in node.body:
        targets: list[ast.expr] = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
            value = statement.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "is_native"
                and isinstance(value, ast.Constant)
                and value.value is False
            ):
                return True
    return False


def _is_kernel_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", None
        )
        if name == "BatchedAggregator":
            return not _is_loop_fallback(node)
    return False


def _int_dtype_value(value: ast.expr, aliases: set[str]) -> bool:
    if isinstance(value, ast.Attribute):
        return (
            isinstance(value.value, ast.Name)
            and value.value.id in aliases
            and value.attr in _INT_DTYPE_ATTRS
        )
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value in _INT_DTYPE_STRINGS
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, rule: BackendPurityRule, module: ModuleContext):
        self.rule = rule
        self.module = module
        self.aliases = _numpy_aliases(module.tree)
        self.findings: list[Finding] = []
        self._kernel_depth = 0
        self._class_stack: list[bool] = []  # is-kernel-class flags
        self._sanctioned: set[int] = set()  # np nodes already judged

    # -- scope tracking -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(_is_kernel_class(node))
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        in_kernel_class = bool(self._class_stack and self._class_stack[-1])
        is_kernel = (
            self._kernel_depth > 0
            or in_kernel_class
            or bool(_function_params(node) & set(_KERNEL_PARAMS))
        )
        self._kernel_depth += 1 if is_kernel else 0
        # Methods of a kernel class may define further classes; reset the
        # class flag so only lexical nesting carries kernel scope.
        self._class_stack.append(False)
        self.generic_visit(node)
        self._class_stack.pop()
        self._kernel_depth -= 1 if is_kernel else 0

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- checks ---------------------------------------------------------

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.module, node, message))

    def _numpy_attribute(self, node: ast.Attribute) -> bool:
        return (
            isinstance(node.value, ast.Name) and node.value.id in self.aliases
        )

    def visit_Call(self, node: ast.Call) -> None:
        if self._kernel_depth > 0:
            func = node.func
            if isinstance(func, ast.Attribute) and self._numpy_attribute(func):
                self._sanctioned.add(id(func))
                if func.attr in _STAGING_CALLS:
                    dtype = next(
                        (
                            kw.value
                            for kw in node.keywords
                            if kw.arg == "dtype"
                        ),
                        None,
                    )
                    if dtype is None or not _int_dtype_value(
                        dtype, self.aliases
                    ):
                        self._flag(
                            func,
                            f"np.{func.attr}(...) in kernel scope without an "
                            f"explicit integer dtype — use the backend "
                            f"namespace (xp.{func.attr}) or pin "
                            f"dtype=np.int64 for host-side index "
                            f"bookkeeping",
                        )
                elif func.attr not in _ALLOWED_ATTRS:
                    self._flag(
                        func,
                        f"kernel code must call the ArrayBackend namespace, "
                        f"not np.{func.attr} — backends other than numpy "
                        f"would silently round-trip through the host",
                    )
            # Float dtype string literals: dtype="float64" kwargs and
            # .astype("float32")-style calls re-introduce the up-cast
            # bug class the backend seam removed.
            for keyword in node.keywords:
                if (
                    keyword.arg == "dtype"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                    and keyword.value.value in _FLOAT_DTYPE_STRINGS
                ):
                    self._flag(
                        keyword.value,
                        f"float dtype literal {keyword.value.value!r} in "
                        f"kernel scope — use the backend's float_dtype "
                        f"handle",
                    )
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                for argument in node.args:
                    if (
                        isinstance(argument, ast.Constant)
                        and isinstance(argument.value, str)
                        and argument.value in _FLOAT_DTYPE_STRINGS
                    ):
                        self._flag(
                            argument,
                            f"float dtype literal {argument.value!r} in "
                            f"kernel scope — use the backend's float_dtype "
                            f"handle",
                        )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._kernel_depth > 0
            and id(node) not in self._sanctioned
            and self._numpy_attribute(node)
        ):
            if node.attr in _FLOAT_DTYPE_ATTRS:
                self._flag(
                    node,
                    f"float dtype literal np.{node.attr} in kernel scope — "
                    f"use the backend's float_dtype handle",
                )
            elif node.attr not in _ALLOWED_ATTRS | _STAGING_CALLS:
                self._flag(
                    node,
                    f"kernel code must use the ArrayBackend namespace "
                    f"(xp.{node.attr}), not np.{node.attr}",
                )
            elif node.attr in _STAGING_CALLS:
                # A staging constructor referenced without being called
                # (e.g. passed as a callback) cannot pin its dtype.
                self._flag(
                    node,
                    f"np.{node.attr} referenced (not called with an integer "
                    f"dtype) in kernel scope — use the backend namespace",
                )
        self.generic_visit(node)


class BackendPurityRule(LintRule):
    """No raw numpy or float-dtype literals inside batched kernels."""

    name = "backend-purity"

    def __init__(self, kernel_modules: tuple[str, ...] = KERNEL_MODULES):
        self.kernel_modules = tuple(kernel_modules)

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.is_module(*self.kernel_modules):
            return ()
        visitor = _Visitor(self, module)
        visitor.visit(module.tree)
        return visitor.findings
