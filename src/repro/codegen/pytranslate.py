"""Tasklet Python-code analysis and NumPy vectorization translation.

Loop-mode code generation inlines tasklet code verbatim (it already is
Python).  Vector-mode lowering, used when an entire Map iteration domain
is evaluated at once, rewrites the tasklet AST so every operation is
elementwise over NumPy arrays: ``min`` becomes ``np.minimum``, ``x if c
else y`` becomes ``np.where(c, x, y)``, boolean operators become logical
ufuncs, and ``math.*`` calls become their ``np.*`` equivalents.  A trailing
``if``/``else`` over plain assignments becomes a mask (:data:`MASK`): names
both paths define merge through ``np.where``, names only one branch defines
are left to the caller to store under the mask.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codegen.common import CodegenError
from repro.codegen.controlflow import _nan_free_names

_NP_FUNCS = {
    "min": "np.minimum",
    "max": "np.maximum",
    "abs": "np.abs",
    "sqrt": "np.sqrt",
    "exp": "np.exp",
    "log": "np.log",
    "sin": "np.sin",
    "cos": "np.cos",
    "tan": "np.tan",
    "pow": "np.power",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "fabs": "np.abs",
    "conj": "np.conj",
}

#: Scalar casts with an exact elementwise equivalent (``int()`` truncates
#: toward zero, as does ``astype`` from float to a signed integer type).
_CASTS = {
    "int": "np.int64",
    "float": "np.float64",
}


def parse_tasklet(code: str) -> ast.Module:
    try:
        return ast.parse(code)
    except SyntaxError as err:
        raise CodegenError(f"cannot parse tasklet code: {err}") from err


def assigned_names(tree: ast.Module) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
    return out


def loaded_names(tree: ast.Module) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
    return out


#: Variables holding the trailing ``if`` test of a predicated tasklet and
#: its negation in :func:`vectorize_tasklet` output.
MASK = "__mask"
NOT_MASK = "__nmask"


def _statements(body: Sequence[ast.stmt]) -> List[ast.stmt]:
    """``body`` without ``pass`` and docstrings."""
    return [
        s
        for s in body
        if not (
            isinstance(s, ast.Pass)
            or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        )
    ]


def _split_branch(tree: ast.Module):
    """``(prelude, trailing if or None)``, no-ops dropped throughout."""
    stmts = _statements(tree.body)
    if stmts and isinstance(stmts[-1], ast.If):
        branch = stmts[-1]
        branch.body = _statements(branch.body)
        branch.orelse = _statements(branch.orelse)
        return stmts[:-1], branch
    return stmts, None


def _plain_assignment(stmt: ast.stmt, views: Sequence[str]) -> bool:
    if isinstance(stmt, ast.Assign):
        return (
            len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _expr_vectorizable(stmt.value, views)
        )
    if isinstance(stmt, ast.AugAssign):
        return isinstance(stmt.target, ast.Name) and _expr_vectorizable(
            stmt.value, views
        )
    return False


def is_vectorizable_tasklet(
    code: str, views: Sequence[str] = (), allow_branch: bool = True
) -> bool:
    """True when the body is plain assignments of elementwise expressions,
    optionally closed by one ``if <elementwise test>:`` / ``else:`` over
    more of the same (the vector-mode contract).

    ``views`` names connectors bound to whole array views: ``view[idx]``
    with an elementwise ``idx`` is then a gather.  Stores through a
    subscript (``view[c] = ...``) never qualify, so bodies that read back
    through a view they write stay on the loop tier.
    """
    try:
        tree = parse_tasklet(code)
    except CodegenError:
        return False
    body, branch = _split_branch(tree)
    if branch is not None:
        if not allow_branch or not _expr_vectorizable(branch.test, views):
            return False
        body = body + branch.body + branch.orelse
    return all(_plain_assignment(s, views) for s in body)


def _targets(stmts: Sequence[ast.stmt]) -> List[str]:
    return [
        (s.targets[0] if isinstance(s, ast.Assign) else s.target).id  # type: ignore
        for s in stmts
    ]


def assignment_summary(code: str) -> Tuple[Set[str], Dict[str, bool]]:
    """For a body :func:`is_vectorizable_tasklet` accepts: the names every
    execution assigns, and the names only one branch of the trailing
    ``if`` assigns (``True``: the taken branch, ``False``: the ``else``).
    A caller may store a one-branch name only under the mask."""
    return _summarize(*_split_branch(parse_tasklet(code)))


def _summarize(body, branch) -> Tuple[Set[str], Dict[str, bool]]:
    always = set(_targets(body))
    if branch is None:
        return always, {}
    then, orelse = set(_targets(branch.body)), set(_targets(branch.orelse))
    conditional = {n: n in then for n in (then ^ orelse) - always}
    return always | (then & orelse), conditional


def _expr_vectorizable(node: ast.expr, views: Sequence[str] = ()) -> bool:
    def ok(n: ast.expr) -> bool:
        return _expr_vectorizable(n, views)

    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex, bool))
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.BinOp):
        ok_ops = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
        return isinstance(node.op, ok_ops) and ok(node.left) and ok(node.right)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.USub, ast.UAdd, ast.Not)) and ok(node.operand)
    if isinstance(node, ast.Compare):
        return all(ok(c) for c in [node.left] + node.comparators)
    if isinstance(node, ast.BoolOp):
        return all(ok(v) for v in node.values)
    if isinstance(node, ast.IfExp):
        return all(ok(x) for x in (node.test, node.body, node.orelse))
    if isinstance(node, ast.Subscript):
        # Gather through a whole-array view connector.
        if not (isinstance(node.value, ast.Name) and node.value.id in views):
            return False
        idx = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return all(ok(i) for i in idx)
    if isinstance(node, ast.Call):
        fname = _call_name(node)
        if fname in _CASTS and len(node.args) == 1:
            return ok(node.args[0])
        if fname is None or fname not in _NP_FUNCS:
            return False
        return all(ok(a) for a in node.args)
    return False


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
        if node.func.value.id in ("math", "np", "numpy"):
            return node.func.attr
    return None


#: Operators a Python number may raise on (``x / 0``) or leave the reals
#: with (``(-1.0) ** 0.5``) where a NumPy value warns and stays real.
RAISING_OPS = (ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


class _Vectorize(ast.NodeTransformer):
    """Rewrite a tasklet expression tree into elementwise NumPy form.

    An ``if``/``else`` reading only ``scalars`` (names bound to one Python
    number: symbols, constants) stays a Python conditional."""

    def __init__(self, rename: Dict[str, str], scalars: Set[str] = frozenset()):
        self.rename = rename
        self.scalars = scalars

    def visit_Name(self, node: ast.Name):
        new = self.rename.get(node.id)
        if new is not None:
            return ast.copy_location(
                ast.parse(new, mode="eval").body, node
            )
        return node

    def visit_Call(self, node: ast.Call):
        self.generic_visit(node)
        fname = _call_name(node)
        if fname in _CASTS and len(node.args) == 1:
            cast = ast.parse(
                f"np.asarray(__x).astype({_CASTS[fname]})", mode="eval"
            ).body
            cast.func.value.args[0] = node.args[0]  # type: ignore[attr-defined]
            return ast.copy_location(ast.fix_missing_locations(cast), node)
        if fname is None or fname not in _NP_FUNCS:
            raise CodegenError(f"call {ast.dump(node.func)} not vectorizable")
        target = _NP_FUNCS[fname]
        # N-ary min/max fold into nested binary ufunc calls.
        if fname in ("min", "max") and len(node.args) > 2:
            out = node.args[0]
            for a in node.args[1:]:
                out = ast.Call(
                    func=ast.parse(target, mode="eval").body, args=[out, a], keywords=[]
                )
            return ast.copy_location(ast.fix_missing_locations(out), node)
        return ast.copy_location(
            ast.Call(
                func=ast.parse(target, mode="eval").body,
                args=node.args,
                keywords=[],
            ),
            node,
        )

    def visit_IfExp(self, node: ast.IfExp):
        python = self.scalars and all(
            n.id in self.scalars for n in ast.walk(node) if isinstance(n, ast.Name)
        )
        self.generic_visit(node)
        if python:
            return node
        return ast.copy_location(
            ast.Call(
                func=ast.parse("np.where", mode="eval").body,
                args=[node.test, node.body, node.orelse],
                keywords=[],
            ),
            node,
        )

    def visit_BoolOp(self, node: ast.BoolOp):
        self.generic_visit(node)
        fn = "np.logical_and" if isinstance(node.op, ast.And) else "np.logical_or"
        out = node.values[0]
        for v in node.values[1:]:
            out = ast.Call(
                func=ast.parse(fn, mode="eval").body, args=[out, v], keywords=[]
            )
        return ast.copy_location(ast.fix_missing_locations(out), node)

    def visit_UnaryOp(self, node: ast.UnaryOp):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return ast.copy_location(
                ast.Call(
                    func=ast.parse("np.logical_not", mode="eval").body,
                    args=[node.operand],
                    keywords=[],
                ),
                node,
            )
        return node


def vectorize_tasklet(
    code: str, rename: Dict[str, str], scalar_branches: bool = False
) -> List[Tuple[str, str]]:
    """Translate tasklet code to vector form.

    ``rename`` maps connector/parameter names to replacement expressions
    (array loads, broadcast index arrays).  Returns ``(target, expr)``
    source pairs in statement order.  ``scalar_branches`` keeps an
    ``if``/``else`` over the tasklet's free names alone (symbols,
    constants) a Python conditional (:class:`_Vectorize`); the caller
    allows it where a Python number meets only arrays it promotes like a
    NumPy one.  A tasklet with a :data:`RAISING_OPS` operator keeps
    ``np.where``: its 0-d array divides as NumPy does, where a Python
    number may raise.

    A trailing ``if`` evaluates both branches over the whole domain (the
    caller silences floating-point warnings from lanes the test excludes):
    its test is assigned to :data:`MASK`, each branch computes into
    private ``__t_<name>`` / ``__f_<name>`` variables, a connector both
    paths define merges through ``np.where``, and a name only one branch
    defines is assigned unmerged — see :func:`assignment_summary`.
    """
    tree = parse_tasklet(code)
    scalars: Set[str] = set()
    if scalar_branches and " if " in code and not any(  # an ``if``/``else`` at all
        isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, RAISING_OPS)
        for n in ast.walk(tree)
    ):
        scalars = loaded_names(tree) - set(rename) - assigned_names(tree)
    body, branch = _split_branch(tree)
    out: List[Tuple[str, str]] = []

    def vec(value: ast.expr, scope: Dict[str, str]) -> str:
        new_value = _Vectorize(scope, scalars).visit(value)
        ast.fix_missing_locations(new_value)
        return ast.unparse(new_value)

    def translate(stmt: ast.stmt, scope: Dict[str, str]) -> Tuple[str, str]:
        if isinstance(stmt, ast.Assign):
            return stmt.targets[0].id, vec(stmt.value, scope)  # type: ignore
        if isinstance(stmt, ast.AugAssign):
            target = stmt.target.id  # type: ignore[attr-defined]
            value = ast.BinOp(left=ast.Name(id=target, ctx=ast.Load()), op=stmt.op,
                              right=stmt.value)
            return target, vec(ast.fix_missing_locations(value), scope)
        raise CodegenError(f"statement not vectorizable: {ast.dump(stmt)}")

    for stmt in body:
        target, expr = translate(stmt, rename)
        out.append((rename.get(target, target), expr))
    if branch is None:
        return out

    # ``asarray(bool)`` is Python truthiness, and free for comparisons.
    out.append((MASK, f"np.asarray({vec(branch.test, rename)}, dtype=bool)"))
    _, conditional = _summarize(body, branch)
    # Both branches run over every lane, so neither may see what the other
    # assigned: every name a branch assigns — connector or local — lives
    # under a branch-private alias that later reads on that path resolve to.
    sides = []
    for tag, stmts in (("t", branch.body), ("f", branch.orelse)):
        scope = dict(rename)
        for stmt in stmts:
            target, expr = translate(stmt, scope)
            scope[target] = f"__{tag}_{target}"
            out.append((scope[target], expr))
        sides.append(scope)
    # Only connectors outlive the ``if``: one-branch names keep their
    # branch's value, the rest merge with the other path's (or the
    # prelude's) under the mask.
    for n in dict.fromkeys(_targets(branch.body) + _targets(branch.orelse)):
        if n not in rename:
            continue
        if n in conditional:
            out.append((rename[n], sides[0 if conditional[n] else 1][n]))
        else:
            out.append((rename[n], f"np.where({MASK}, {sides[0][n]}, {sides[1][n]})"))
    if not all(conditional.values()):
        out.append((NOT_MASK, f"np.logical_not({MASK})"))
    return out


def detect_pure_product(code: str, inputs: Sequence[str], output: str):
    """The constant ``coef`` when the tasklet computes ``output = coef *
    prod(inputs)`` exactly (1 for a bare product) — the pattern that admits
    the ``@`` contraction lowering — else None."""
    try:
        tree = parse_tasklet(code)
    except CodegenError:
        return None
    stmts = _statements(tree.body)
    if len(stmts) != 1 or not isinstance(stmts[0], ast.Assign):
        return None
    stmt = stmts[0]
    if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
        return None
    if stmt.targets[0].id != output:
        return None
    factors: List[str] = []
    coef = 1

    def collect(node: ast.expr) -> bool:
        nonlocal coef
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return collect(node.left) and collect(node.right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            coef = -coef
            return collect(node.operand)
        if isinstance(node, ast.Name):
            factors.append(node.id)
            return True
        if isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float, complex)
        ) and not isinstance(node.value, bool):
            coef = coef * node.value
            return True
        return False

    if not collect(stmt.value) or sorted(factors) != sorted(inputs):
        return None
    return coef


def _references(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)
    )


def detect_indexed_update(code: str, view_conn: str) -> Optional[Tuple[str, str]]:
    """Detect the indirect-update ("scatter") tasklet pattern::

        [prelude assignments]
        view[idx] += val                      # or *=, or
        view[idx] = min(view[idx], val)       # or max

    where ``view_conn`` is the connector holding a view of the output
    container.  These bodies fail ``is_vectorizable_tasklet`` (the
    subscripted store) yet have an exact whole-domain lowering through
    the unbuffered ``np.<ufunc>.at`` scatter ufuncs.

    Returns ``(op, mini_code)`` with ``op`` in ``{"sum", "product",
    "min", "max"}`` and ``mini_code`` a rewritten tasklet body computing
    ``__scatter_idx`` and ``__scatter_val`` (prelude preserved), suitable
    for :func:`vectorize_tasklet`.  Returns None when the code does not
    match the pattern.
    """
    try:
        tree = parse_tasklet(code)
    except CodegenError:
        return None
    stmts = _statements(tree.body)
    if not stmts:
        return None
    prelude, update = stmts[:-1], stmts[-1]
    # Prelude: plain vectorizable assignments that never touch the view.
    for s in prelude:
        if (
            not isinstance(s, ast.Assign)
            or len(s.targets) != 1
            or not isinstance(s.targets[0], ast.Name)
            or s.targets[0].id == view_conn
            or not _expr_vectorizable(s.value)
            or _references(s.value, view_conn)
        ):
            return None

    def match_subscript(node: ast.expr) -> Optional[ast.expr]:
        """``view_conn[idx]`` with a scalar (rank-1) index → idx."""
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == view_conn
            and not isinstance(node.slice, (ast.Tuple, ast.Slice))
        ):
            return node.slice
        return None

    op: Optional[str] = None
    idx: Optional[ast.expr] = None
    val: Optional[ast.expr] = None
    if isinstance(update, ast.AugAssign):
        idx = match_subscript(update.target)
        if idx is None:
            return None
        if isinstance(update.op, ast.Add):
            op = "sum"
        elif isinstance(update.op, ast.Mult):
            op = "product"
        else:
            return None
        val = update.value
    elif (
        isinstance(update, ast.Assign)
        and len(update.targets) == 1
        and isinstance(update.value, ast.Call)
        and _call_name(update.value) in ("min", "max")
        and len(update.value.args) == 2
        and not update.value.keywords
    ):
        idx = match_subscript(update.targets[0])
        if idx is None:
            return None
        target_src = ast.unparse(update.targets[0])
        a, b = update.value.args
        if isinstance(a, ast.Subscript) and ast.unparse(a) == target_src:
            val = b
        elif isinstance(b, ast.Subscript) and ast.unparse(b) == target_src:
            val = a
        else:
            return None
        op = _call_name(update.value)
    else:
        return None
    # Index and value must be elementwise over map parameters and must not
    # read back through the view (order-dependent otherwise).
    if not _expr_vectorizable(idx) or not _expr_vectorizable(val):
        return None
    if _references(idx, view_conn) or _references(val, view_conn):
        return None
    lines = [ast.unparse(s) for s in prelude]
    lines.append(f"__scatter_idx = {ast.unparse(idx)}")
    lines.append(f"__scatter_val = {ast.unparse(val)}")
    return op, "\n".join(lines)


# ----------------------------------------------------- Python-number bodies
#: ``math`` functions returning a float.  They convert every argument to a
#: C double first, so a Python float and an ``np.float64`` of the same
#: value give the same result and raise the same errors.
_MATH_FLOAT = frozenset({
    "sqrt", "exp", "expm1", "log", "log1p", "log2", "log10", "pow", "fabs",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh",
    "tanh", "hypot", "copysign",
})

#: The NumPy scalar a boxed name of each number type stands in for.
_BOX = {"f": "np.float64", "b": "np.bool_"}

#: The arithmetic operators of a statement on numbers, and their source.
_OP_SRC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class _NumberType:
    """:meth:`of` gives ``'f'`` (a float64 value), ``'i'`` (an integer) or
    ``'b'`` (a bool) when every operation in an expression gives a Python
    number the result it gives a NumPy scalar of the same value and type:
    ``+ - *``, ``/`` up to a zero divisor (which raises), unary ``-``,
    comparisons, ``not``, ``and``/``or`` and ``if``/``else`` (which only
    select), ``abs``, ``min``, ``max`` and the ``math`` calls of
    :data:`_MATH_FLOAT`; None for anything else.  Names take their type
    from ``env``.  On the way it collects the ``names`` read, and whether
    the expression ``raises``: divides or calls ``math``, which on Python
    numbers may raise where NumPy scalars warn."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        self.names: Set[str] = set()
        self.raises = False

    def of(self, node: ast.expr) -> Optional[str]:
        t = self.of
        if isinstance(node, ast.Constant):
            return {bool: "b", int: "i", float: "f"}.get(type(node.value))
        if isinstance(node, ast.Name):
            self.names.add(node.id)
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):  # ``math.pi``, ``math.e``
            math_const = isinstance(node.value, ast.Name) and node.value.id == "math"
            return "f" if math_const and node.attr in ("pi", "e", "tau", "inf") else None
        if isinstance(node, ast.BinOp) and type(node.op) in _OP_SRC:
            a, b = t(node.left), t(node.right)
            if a is None or b is None:
                return None
            if isinstance(node.op, ast.Div):
                self.raises = True
                return "f"
            if "f" in (a, b):
                return "f"
            return "i" if "i" in (a, b) else None  # NumPy adds bools as ``or``
        if isinstance(node, ast.UnaryOp):
            a = t(node.operand)
            if isinstance(node.op, ast.Not):
                return a and "b"
            return a if isinstance(node.op, (ast.USub, ast.UAdd)) and a in ("f", "i") else None
        if isinstance(node, ast.Compare):
            return "b" if all([t(n) for n in [node.left] + node.comparators]) else None
        if isinstance(node, (ast.BoolOp, ast.IfExp)):
            if isinstance(node, ast.IfExp):
                if t(node.test) is None:
                    return None
                values = [node.body, node.orelse]
            else:
                values = node.values
            types = {t(v) for v in values}
            return types.pop() if len(types) == 1 else None
        if isinstance(node, ast.Call) and not node.keywords:
            types = {t(a) for a in node.args}
            if None in types or not node.args:
                return None
            if isinstance(node.func, ast.Name) and node.func.id in ("abs", "min", "max"):
                if len(types) != 1 or types == {"b"} or (node.func.id == "abs") != (len(node.args) == 1):
                    return None
                return types.pop()
            if (
                isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "math" and node.func.attr in _MATH_FLOAT
            ):
                self.raises = True
                return "f"
        return None


def _boxed(src: str, boxes: Dict[str, str]) -> str:
    """``src`` with every name of ``boxes`` wrapped back into its NumPy
    scalar.  Text substitution is exact here: a statement on numbers has
    no strings, keywords or attributes besides ``math.*``."""
    if not boxes:
        return src
    names = "|".join(map(re.escape, boxes))
    return re.sub(
        rf"(?<![\w.])({names})(?!\w)", lambda m: f"{boxes[m[1]]}({m[1]})", src
    )


def number_statements(
    code: str, env: Dict[str, str], boxed: Set[str]
) -> Optional[Tuple[List[Tuple[str, Optional[str]]], Dict[str, str]]]:
    """A tasklet body on Python numbers, or None when some statement is
    not a plain assignment :class:`_NumberType` accepts.

    ``env`` types the names the body reads before it assigns them (the
    inputs, parameters, symbols and constants); ``boxed`` names the inputs
    read as Python numbers where indexing the array gives a NumPy scalar.  Returns
    one ``(source, fallback)`` pair per statement — none when no
    statement has a fallback, so the body runs as written — and the type
    of every name after the body.  ``fallback`` is set for a statement
    that divides or calls ``math``: the caller runs it when the statement
    raises ``ArithmeticError``, and it recomputes the statement with
    every boxed name — an input, or a local assigned from one — back in
    its NumPy scalar, so ``x / 0.0`` gives NumPy's ``inf`` and warning
    again."""
    env = dict(env)
    boxes = {n: _BOX[env[n]] for n in boxed if env.get(n) in _BOX}
    out: List[Tuple[object, Optional[str]]] = []
    lines = code.splitlines()
    for stmt in _statements(parse_tasklet(code).body):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AugAssign) and type(stmt.op) in _OP_SRC:
            target = stmt.target
            value = ast.BinOp(left=ast.Name(id=getattr(target, "id", ""), ctx=ast.Load()),
                              op=stmt.op, right=stmt.value)
        else:
            return None
        if not isinstance(target, ast.Name):
            return None
        typer = _NumberType(env)
        typ = typer.of(value)
        if typ is None:
            return None
        if typer.raises:
            if stmt.end_lineno == stmt.lineno:  # its own text, as one line
                line = lines[stmt.lineno - 1].encode()
                src, rhs = (
                    line[n.col_offset:n.end_col_offset].decode() for n in (stmt, stmt.value)
                )
            else:
                src, rhs = ast.unparse(stmt), ast.unparse(stmt.value)
            rhs = _boxed(rhs, boxes)
            if isinstance(stmt, ast.AugAssign):
                rhs = f"{_boxed(target.id, boxes)} {_OP_SRC[type(stmt.op)]} ({rhs})"
            out.append((src, f"{target.id} = {rhs}"))
        else:
            out.append((stmt, None))
        env[target.id] = typ
        if typ in _BOX and typer.names & boxes.keys():
            boxes[target.id] = _BOX[typ]
        else:
            boxes.pop(target.id, None)
    if not any(fallback for _, fallback in out):
        return [], env
    return [
        (stmt if fallback else ast.unparse(stmt), fallback) for stmt, fallback in out
    ], env


# ------------------------------------------------------- static typing
#: Operators a plain store computes into its view (``PythonGenerator._binop_store``).
BINOP_UFUNC = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide}


def integer_valued(sdfg, code: str, out: str, in_edges, mparams) -> bool:
    """Whether every value the tasklet assigns to ``out`` is an integer by
    construction: computed from integer/boolean connectors, parameters,
    symbols and literals and from locals that are, without ``/``, ``**``
    or calls.  A branch test only selects, so it may read anything."""
    conns = {e.dst_conn for e in in_edges}
    ints = {
        e.dst_conn for e in in_edges
        if sdfg.arrays[e.data.data].dtype.nptype.kind in "biu"
    }
    ints |= (set(mparams) | _nan_free_names(sdfg)) - conns
    assigns = []  # (assigned names, the expression assigned)
    for node in ast.walk(parse_tasklet(code)):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node  # which also reads the target
        else:
            continue
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        assigns.append((names, value))
    # Locals start out integer and lose it on any other assignment.
    local = set().union(*(names for names, _ in assigns))
    known = ints | local - conns - set(sdfg.symbols) - set(sdfg.constants)
    changed = True
    while changed:
        changed = False
        for names, value in assigns:
            if names & known and not _integer_expr(value, known):
                known -= names
                changed = True
    return out in known


def _integer_expr(node: ast.AST, known: Set[str]) -> bool:
    """Whether ``node`` is an integer when the names in ``known`` are."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and type(n.value) not in (int, bool):
            return False
        if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, (ast.Div, ast.Pow)):
            return False
        if isinstance(n, (ast.Call, ast.Attribute, ast.Subscript)):
            return False
        if isinstance(n, ast.Name) and n.id not in known:
            return False
    return True


def result_dtype(node: ast.AST, types: Dict[str, object]):
    """The dtype NumPy gives ``node`` when each name in ``types`` has
    its dtype: number literals stay Python ``int``/``float`` (weak, as in
    NumPy's promotion; ``np.dtype("int64") == int`` holds, so only
    ``isinstance(t, type)`` tells them from dtypes), ``+ - * /`` and unary
    ``-`` resolve through the ufunc.  None for anything else (calls,
    symbols, comparisons)."""
    if isinstance(node, ast.Name):
        return types.get(node.id)
    if isinstance(node, ast.Constant):
        return type(node.value) if type(node.value) in (int, float) else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        t = result_dtype(node.operand, types)
        return t if t is None or isinstance(t, type) else np.negative.resolve_dtypes((t, None))[-1]
    if isinstance(node, ast.BinOp) and type(node.op) in BINOP_UFUNC:
        a, b = result_dtype(node.left, types), result_dtype(node.right, types)
        if a is None or b is None:
            return None
        if isinstance(a, type) and isinstance(b, type):  # Python arithmetic on literals
            return float if float in (a, b) or isinstance(node.op, ast.Div) else int
        try:
            return BINOP_UFUNC[type(node.op)].resolve_dtypes((a, b, None))[-1]
        except (TypeError, ValueError):  # no loop for these dtypes
            return None
    return None
