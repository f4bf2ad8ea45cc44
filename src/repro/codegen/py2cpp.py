"""Python-to-C++ tasklet code converter (paper §3.2).

The paper: "the converter traverses the Python AST, performs type and
shape inference, tracks local variables for definitions, and uses
features from C++14 to create the corresponding code."  This module
implements that converter for the tasklet subset: assignments,
arithmetic, comparisons, conditionals (statement and expression forms),
and the math intrinsics; dictionaries, dynamically-sized lists, and
exceptions are unsupported by design.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.codegen.common import CodegenError
from repro.sdfg.dtypes import typeclass

_MATH_FUNCS = {
    "sqrt": "std::sqrt",
    "exp": "std::exp",
    "log": "std::log",
    "sin": "std::sin",
    "cos": "std::cos",
    "tan": "std::tan",
    "fabs": "std::fabs",
    "floor": "std::floor",
    "ceil": "std::ceil",
    "pow": "std::pow",
    "abs": "std::abs",
}

_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.Mod: "%",
}

#: C++ types of integer connectors, from the IR's type table (C++
#: promotes ``bool`` to an integer too).
_INT_CTYPES = frozenset(
    typeclass(t).ctype for t in typeclass._CTYPES
    if t == "bool" or typeclass(t).is_integer()
)

_CMPOPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


class Py2Cpp:
    """Translate one tasklet's Python code to C++ statements."""

    def __init__(
        self,
        declared: Optional[Dict[str, str]] = None,
        streams: Set[str] = frozenset(),
    ):
        #: name -> ctype for pre-declared variables (connectors).
        self.declared: Dict[str, str] = dict(declared or {})
        #: Output stream connectors: assigning one pushes onto it.
        self.streams = streams
        self._defined: Set[str] = set(self.declared)
        #: Connectors the code stores through (``a[i] = ...``, ``a[i] += ...``).
        self.stored: Set[str] = set()

    def convert(self, code: str) -> List[str]:
        try:
            tree = ast.parse(code)
        except SyntaxError as err:
            raise CodegenError(f"tasklet code does not parse: {err}") from err
        lines: List[str] = []
        for stmt in tree.body:
            lines.extend(self._stmt(stmt))
        return lines

    # ------------------------------------------------------------- statements
    def _stmt(self, node: ast.stmt) -> List[str]:
        if isinstance(node, ast.Assign):
            if len(node.targets) != 1:
                raise CodegenError("chained assignment unsupported in tasklets")
            target = node.targets[0]
            value = self._expr(node.value)
            if isinstance(target, ast.Name):
                name = target.id
                if name in self.streams:
                    return [f"{name}.push({value});"]
                if name in self._defined:
                    return [f"{name} = {value};"]
                self._defined.add(name)
                return [f"auto {name} = {value};"]
            if isinstance(target, ast.Subscript):
                self._store(target)
                return [f"{self._expr(target)} = {value};"]
            raise CodegenError(f"unsupported assignment target {ast.dump(target)}")
        if isinstance(node, ast.AugAssign):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise CodegenError("unsupported augmented assignment")
            self._store(node.target)
            return [f"{self._expr(node.target)} {op}= {self._expr(node.value)};"]
        if isinstance(node, ast.If):
            out = [f"if ({self._expr(node.test)}) {{"]
            for s in node.body:
                out.extend("    " + ln for ln in self._stmt(s))
            if node.orelse:
                out.append("} else {")
                for s in node.orelse:
                    out.extend("    " + ln for ln in self._stmt(s))
            out.append("}")
            return out
        if isinstance(node, ast.Pass):
            return []
        if isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Constant):
                return []  # docstring
            if isinstance(node.value, ast.Call):
                return [f"{self._expr(node.value)};"]
        raise CodegenError(f"unsupported tasklet statement {ast.dump(node)}")

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            self.stored.add(target.value.id)

    def _is_int(self, node: ast.expr) -> bool:
        """Whether ``node`` has an integer C++ type: an int literal, an
        integer connector, a symbol, ``int()``, or integer arithmetic."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, int) and not isinstance(node.value, bool)
        if isinstance(node, ast.Name):
            if node.id in self.declared:
                return self.declared[node.id] in _INT_CTYPES
            # Undefined names are symbols, which C++ sees as long long.
            return node.id not in self._defined
        if isinstance(node, ast.BinOp):
            return (
                not isinstance(node.op, (ast.Div, ast.Pow))
                and self._is_int(node.left)
                and self._is_int(node.right)
            )
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, (ast.USub, ast.UAdd)) and self._is_int(node.operand)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("min", "max"):
                return all(self._is_int(a) for a in node.args)
            return node.func.id == "int"
        return False

    # ------------------------------------------------------------ expressions
    def _expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return "true" if node.value else "false"
            if isinstance(node.value, (int, float)):
                return repr(node.value)
            raise CodegenError(f"unsupported literal {node.value!r}")
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                return f"std::pow({self._expr(node.left)}, {self._expr(node.right)})"
            if isinstance(node.op, ast.FloorDiv):
                # Python floor semantics vs C++ truncation; non-negative in IR use.
                return f"(({self._expr(node.left)}) / ({self._expr(node.right)}))"
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise CodegenError(f"unsupported operator {ast.dump(node.op)}")
            return f"({self._expr(node.left)} {op} {self._expr(node.right)})"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self._expr(node.operand)})"
            if isinstance(node.op, ast.UAdd):
                return self._expr(node.operand)
            if isinstance(node.op, ast.Not):
                return f"(!{self._expr(node.operand)})"
            raise CodegenError("unsupported unary operator")
        if isinstance(node, ast.Compare):
            parts = []
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                cop = _CMPOPS.get(type(op))
                if cop is None:
                    raise CodegenError("unsupported comparison")
                parts.append(f"({self._expr(left)} {cop} {self._expr(right)})")
                left = right
            return "(" + " && ".join(parts) + ")"
        if isinstance(node, ast.BoolOp):
            op = "&&" if isinstance(node.op, ast.And) else "||"
            return "(" + f" {op} ".join(self._expr(v) for v in node.values) + ")"
        if isinstance(node, ast.IfExp):
            return (
                f"(({self._expr(node.test)}) ? ({self._expr(node.body)}) "
                f": ({self._expr(node.orelse)}))"
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            base = self._expr(node.value)
            if isinstance(node.slice, ast.Tuple):
                raise CodegenError(
                    "multi-dimensional connector indexing requires flat pointers"
                )
            return f"{base}[{self._expr(node.slice)}]"
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                fn = _MATH_FUNCS.get(node.attr)
                if fn:
                    return fn
            raise CodegenError(f"unsupported attribute {ast.dump(node)}")
        raise CodegenError(f"unsupported expression {ast.dump(node)}")

    def _call(self, node: ast.Call) -> str:
        args = [self._expr(a) for a in node.args]
        if isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname in ("min", "max"):
                ctype = "long long" if self._is_int(node) else "double"
                out = args[0]
                for a in args[1:]:
                    out = f"std::{fname}<{ctype}>({out}, {a})"
                return out
            if fname in ("int",):
                return f"(long long)({args[0]})"
            if fname in ("float",):
                return f"(double)({args[0]})"
            if fname in _MATH_FUNCS:
                return f"{_MATH_FUNCS[fname]}({', '.join(args)})"
            # Stream operations appear as method-style calls after renaming.
            raise CodegenError(f"unsupported call {fname!r} in tasklet")
        if isinstance(node.func, ast.Attribute):
            obj = node.func.value
            if isinstance(obj, ast.Name) and obj.id == "math":
                fn = _MATH_FUNCS.get(node.func.attr)
                if fn:
                    return f"{fn}({', '.join(args)})"
            if node.func.attr == "push":
                target = self._expr(obj)
                return f"{target}.push({', '.join(args)})"
            if node.func.attr == "pop":
                target = self._expr(obj)
                return f"{target}.pop()"
        raise CodegenError(f"unsupported call {ast.dump(node.func)}")
