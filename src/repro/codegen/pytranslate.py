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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.codegen.common import CodegenError

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


class _Vectorize(ast.NodeTransformer):
    """Rewrite a tasklet expression tree into elementwise NumPy form."""

    def __init__(self, rename: Dict[str, str]):
        self.rename = rename

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
        self.generic_visit(node)
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
    code: str, rename: Dict[str, str]
) -> List[Tuple[str, str]]:
    """Translate tasklet code to vector form.

    ``rename`` maps connector/parameter names to replacement expressions
    (array loads, broadcast index arrays).  Returns ``(target, expr)``
    source pairs in statement order.

    A trailing ``if`` evaluates both branches over the whole domain (the
    caller silences floating-point warnings from lanes the test excludes):
    its test is assigned to :data:`MASK`, each branch computes into
    private ``__t_<name>`` / ``__f_<name>`` variables, a connector both
    paths define merges through ``np.where``, and a name only one branch
    defines is assigned unmerged — see :func:`assignment_summary`.
    """
    body, branch = _split_branch(parse_tasklet(code))
    out: List[Tuple[str, str]] = []

    def vec(value: ast.expr, scope: Dict[str, str]) -> str:
        new_value = _Vectorize(scope).visit(value)
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
