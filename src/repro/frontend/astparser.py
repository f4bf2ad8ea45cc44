"""Restricted-Python-to-SDFG parser (paper §2.1).

Supported constructs and their lowerings:

=====================================  =====================================
Python                                 SDFG
=====================================  =====================================
``for i in rp.map[a:b]``               Map scope
``with rp.tasklet:`` + ``<<``/``>>``   Tasklet with explicit memlets
``x[i] = f(a[i], ...)`` in a map       implicit Tasklet (memlets inferred)
``x[i] += v`` in a map                 write-conflict-resolution memlet
``a[b[i]]``                            indirection subgraph (App. F style)
``for t in range(...)``                guarded loop in the state machine
``while cond`` / ``if cond``           state machine with conditions
``C = A @ B``                          Fig. 9b map + reduce dataflow
``C = A + B`` etc.                     elementwise map
``C = np.sum(A, axis=k)``              Reduce library node
``tmp: rp.float64[N, M]``              transient container declaration
=====================================  =====================================

Unsupported Python (dictionaries, dynamic lists, exceptions, recursion)
raises :class:`FrontendError` with the offending line — matching the
paper's behavior of raising on unsupported syntax.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.frontend import npops
from repro.frontend.decorators import MapRange, _Dyn, _TaskletSentinel
from repro.sdfg import SDFG, InterstateEdge, Memlet, dtypes
from repro.sdfg.data import Array, Data, Scalar, Stream
from repro.sdfg.dtypes import Language, typeclass
from repro.sdfg.nodes import AccessNode, EntryNode, ExitNode
from repro.symbolic import Expr, Integer, Subset, Symbol, parse_expr
from repro.symbolic.expr import Not


class FrontendError(Exception):
    """Raised on Python constructs outside the supported subset."""

    def __init__(self, message: str, node: Optional[ast.AST] = None):
        if node is not None and hasattr(node, "lineno"):
            message = f"line {node.lineno}: {message}"
        super().__init__(message)


def _last_line(code) -> int:
    """The largest line an instruction of ``code`` or of a code object
    nested in it (a nested ``def``, lambda or comprehension) starts on,
    from the line table ``co_lines`` every supported Python has."""
    last = max((line for _, _, line in code.co_lines() if line is not None), default=0)
    for const in code.co_consts:
        if inspect.iscode(const):
            last = max(last, _last_line(const))
    return last


def _sliced_tree(f) -> Optional[ast.Module]:
    """The module of ``f``'s source, cut from its file's cached lines by
    the line numbers its code records, or None when that cut is not one
    ``def``: the caller then asks :func:`inspect.getsource`.

    The cut runs from ``co_firstlineno`` (the first decorator) to the
    last line an instruction starts on, extended over the lines indented
    deeper than the ``def`` that follow it (the rest of a statement that
    spans lines, and code that leaves no instruction, like a closing
    declaration ``tmp: rp.float64[N]``) and the blank and comment lines
    between them.  A continuation line at or left of the ``def``'s
    indentation ends the cut inside a bracket or string, which does not
    parse, so it falls back.  ``inspect.getsource``
    finds the same block by running the tokenizer over it, which costs
    more than the parse."""
    code = getattr(f, "__code__", None)
    if code is None or hasattr(f, "__wrapped__"):
        return None
    linecache.checkcache(code.co_filename)
    lines = linecache.getlines(code.co_filename, f.__globals__)
    first, end = code.co_firstlineno - 1, _last_line(code)
    if not lines or not 0 <= first < end <= len(lines):
        return None
    head = lines[first]
    indent = len(head) - len(head.lstrip())
    for i in range(end, len(lines)):
        text = lines[i].lstrip()
        if text and not text.startswith("#"):
            if len(lines[i]) - len(text) <= indent:
                break
            end = i + 1
    try:
        tree = ast.parse(textwrap.dedent("".join(lines[first:end])))
    except (SyntaxError, ValueError):
        return None
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return None
    return tree


def parse_program(f) -> SDFG:
    """Parse a decorated function into a propagated SDFG.

    The graph is not validated here: every consumer (``compile_sdfg``,
    ``generate_code``, the tuner, the guard, the interpreter, the
    performance model) validates before it trusts a graph.  A graph that
    propagate cannot walk is validated, so it fails with its own
    diagnostic."""
    tree = _sliced_tree(f) or ast.parse(textwrap.dedent(inspect.getsource(f)))
    fndef = tree.body[0]
    if not isinstance(fndef, ast.FunctionDef):
        raise FrontendError("expected a function definition")
    env: Dict[str, Any] = dict(vars(__import__("builtins")))
    env.update(f.__globals__)
    if f.__closure__:
        for name, cell in zip(f.__code__.co_freevars, f.__closure__):
            try:
                env[name] = cell.cell_contents
            except ValueError:
                pass
    parser = ProgramParser(f.__name__, env)
    parser.parse_signature(fndef, getattr(f, "__annotations__", {}))
    parser.parse_body(fndef.body)
    sdfg = parser.sdfg
    try:
        sdfg.propagate()
    except Exception:
        sdfg.validate()
        raise
    return sdfg


class _RangeReadRewriter(ast.NodeTransformer):
    """Replaces array reads in map range bounds with ``__rng<k>``
    connectors, collecting their memlets in ``inputs``."""

    def __init__(self, parser: ProgramParser, inputs: Dict[str, Memlet]):
        self.parser = parser
        self.inputs = inputs

    def visit_Subscript(self, sub: ast.Subscript):
        parser, inputs = self.parser, self.inputs
        if (
            isinstance(sub.value, ast.Name)
            and parser.resolve(sub.value.id) in parser.sdfg.arrays
        ):
            data = parser.resolve(sub.value.id)
            subset = parser._subset_str(sub.slice).replace("|", ", ")
            conn = f"__rng{len(inputs)}"
            inputs[conn] = Memlet(data=data, subset=subset, volume=1)
            return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), sub)
        return self.generic_visit(sub)


class _ReadRewriter(ast.NodeTransformer):
    """Replaces array reads with connector names, collecting their
    memlets in ``inputs`` (see :meth:`ProgramParser._rewrite_reads`)."""

    def __init__(self, parser: ProgramParser, inputs: Dict[str, Memlet]):
        self.parser = parser
        self.inputs = inputs

    def visit_Subscript(self, sub: ast.Subscript):
        parser, inputs = self.parser, self.inputs
        if not (
            isinstance(sub.value, ast.Name)
            and parser.resolve(sub.value.id) in parser.sdfg.arrays
        ):
            return self.generic_visit(sub)
        data = parser.resolve(sub.value.id)
        # Does the subset reference other arrays (indirection)?
        indirect = any(
            isinstance(inner, ast.Subscript)
            and isinstance(inner.value, ast.Name)
            and parser.resolve(inner.value.id) in parser.sdfg.arrays
            for inner in ast.walk(sub.slice)
        )
        if indirect:
            # Bind the whole container; keep (rewritten) indexing in
            # the code. Inner reads become their own connectors.
            new_slice = self.visit(sub.slice)
            conn = parser._fresh_conn(inputs)
            desc = parser.sdfg.arrays[data]
            inputs[conn] = Memlet(
                data=data,
                subset=", ".join(f"0:{s}" for s in desc.shape),
                volume=1,
                dynamic=True,
            )
            return ast.copy_location(
                ast.Subscript(
                    value=ast.Name(id=conn, ctx=ast.Load()),
                    slice=new_slice,
                    ctx=ast.Load(),
                ),
                sub,
            )
        subset = parser._subset_str(sub.slice).replace("|", ", ")
        memlet = Memlet(data=data, subset=subset)
        # Reuse a connector for an identical read.
        for conn, m in inputs.items():
            if m == memlet:
                return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), sub)
        conn = parser._fresh_conn(inputs)
        inputs[conn] = memlet
        return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), sub)


class _ConditionRewriter(ast.NodeTransformer):
    """Maps single-element container reads (``v[0]``) in an interstate
    condition to the container name the runtime binds."""

    def __init__(self, parser: ProgramParser):
        self.parser = parser

    def visit_Subscript(self, sub: ast.Subscript):
        parser = self.parser
        if (
            isinstance(sub.value, ast.Name)
            and parser.resolve(sub.value.id) in parser.sdfg.arrays
        ):
            data = parser.resolve(sub.value.id)
            desc = parser.sdfg.arrays[data]
            if all(s == Integer(1) for s in desc.shape):
                return ast.copy_location(ast.Name(id=data, ctx=ast.Load()), sub)
            raise FrontendError(
                "conditions may only read single-element containers "
                f"(got {data!r})",
                sub,
            )
        return self.generic_visit(sub)


class ProgramParser:
    def __init__(self, name: str, env: Dict[str, Any]):
        self.sdfg = SDFG(name)
        self.env = env
        self.cur: Optional[Any] = None  # current SDFGState
        #: Map-scope stack: list of (MapEntry, MapExit).
        self.scopes: List[Tuple] = []
        #: Per-state access-node bookkeeping for dataflow ordering.
        self._reads: Dict[Tuple[int, str], AccessNode] = {}
        self._writes: Dict[Tuple[int, str], AccessNode] = {}
        #: Alias from Python variable names to container names.
        self.aliases: Dict[str, str] = {}

    # ------------------------------------------------------------- utilities
    def resolve(self, name: str) -> str:
        return self.aliases.get(name, name)

    def state(self):
        if self.cur is None:
            self.cur = self.sdfg.add_state("init")
        return self.cur

    def fresh_state(self, label: str):
        return self.sdfg.add_state(label)

    def read_node(self, state, name: str) -> AccessNode:
        name = self.resolve(name)
        key = (id(state), name)
        if key in self._writes:
            return self._writes[key]
        if key not in self._reads:
            self._reads[key] = state.add_read(name)
        return self._reads[key]

    def write_node(self, state, name: str) -> AccessNode:
        """Write target for the *current statement*.

        Consecutive writer statements get fresh access nodes chained by
        ordering edges, serializing writes (and making later reads see
        earlier writes) exactly as the DaCe frontend does.
        """
        name = self.resolve(name)
        key = (id(state), name)
        cur = self._writes.get(key)
        if cur is None:
            node = state.add_write(name)
            self._writes[key] = node
            return node
        if not state.in_edges(cur):
            return cur  # not yet written through; reuse
        node = state.add_write(name)
        state.add_nedge(cur, node)
        self._writes[key] = node
        return node

    def _eval_static(self, node: ast.AST):
        """Evaluate an annotation/sentinel expression against the closure."""
        code = compile(ast.Expression(body=node), "<annotation>", "eval")
        return eval(code, dict(self.env))

    def _is_sentinel(self, node: ast.AST, cls) -> bool:
        try:
            return isinstance(self._eval_static(node), cls)
        except Exception:
            return False

    # ------------------------------------------------------------- signature
    def parse_signature(
        self, fndef: ast.FunctionDef, annotations: Optional[Dict[str, Any]] = None
    ) -> None:
        annotations = annotations or {}
        for arg in fndef.args.args:
            if arg.arg in annotations:
                ann = annotations[arg.arg]
                if isinstance(ann, str):
                    # PEP 563 stringized annotations: evaluate lazily.
                    ann = eval(ann, dict(self.env))  # noqa: S307
            elif arg.annotation is not None:
                ann = self._eval_static(arg.annotation)
            else:
                raise FrontendError(
                    f"argument {arg.arg!r} needs a type annotation "
                    "(DaCe programs are strongly typed)",
                    arg,
                )
            if isinstance(ann, Data):
                self.sdfg.add_datadesc(arg.arg, ann.clone())
                for s in ann.free_symbols:
                    self.sdfg.symbols.setdefault(s.name, dtypes.int64)
            elif isinstance(ann, typeclass):
                if ann.is_integer():
                    # Integer scalars become symbols (sizes, trip counts).
                    self.sdfg.add_symbol(arg.arg, ann)
                else:
                    self.sdfg.add_scalar(arg.arg, ann)
            else:
                raise FrontendError(
                    f"unsupported annotation for {arg.arg!r}: {ann!r}", arg
                )

    # ------------------------------------------------------------------ body
    def parse_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.parse_statement(stmt)
        if self.cur is None and self.sdfg.number_of_nodes() == 0:
            self.sdfg.add_state("empty")

    def parse_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.For):
            self._parse_for(stmt)
        elif isinstance(stmt, ast.While):
            self._parse_while(stmt)
        elif isinstance(stmt, ast.If):
            self._parse_if(stmt)
        elif isinstance(stmt, ast.With):
            self._parse_tasklet_with(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._parse_annassign(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
            self._parse_assign(stmt)
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            pass  # docstring
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise FrontendError(
                    "DaCe programs return data through array arguments", stmt
                )
        else:
            raise FrontendError(
                f"unsupported statement {type(stmt).__name__}", stmt
            )

    # ------------------------------------------------------------------ maps
    def _parse_for(self, stmt: ast.For) -> None:
        if isinstance(stmt.iter, ast.Subscript) and self._is_sentinel(
            stmt.iter.value, MapRange
        ):
            self._parse_map(stmt)
            return
        if (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
        ):
            if self.scopes:
                raise FrontendError(
                    "sequential loops inside map scopes require a nested "
                    "SDFG; restructure or use the builder API",
                    stmt,
                )
            self._parse_range_loop(stmt)
            return
        raise FrontendError(
            "for-loops must iterate rp.map[...] or range(...)", stmt
        )

    def _parse_map(self, stmt: ast.For) -> None:
        if isinstance(stmt.target, ast.Tuple):
            params = [t.id for t in stmt.target.elts]  # type: ignore[attr-defined]
        else:
            params = [stmt.target.id]  # type: ignore[attr-defined]
        # Data-dependent range bounds (paper Fig. 4/16: A_row[i]:A_row[i+1])
        # become dynamic input connectors on the map entry.
        range_inputs: Dict[str, Memlet] = {}
        slice_ast = self._rewrite_range_reads(stmt.iter.slice, range_inputs)  # type: ignore[attr-defined]
        ndrange = self._subset_str(slice_ast)
        dims = [d for d in ndrange.split("|")]
        if len(dims) != len(params):
            raise FrontendError(
                f"map has {len(params)} parameters but {len(dims)} ranges", stmt
            )
        state = self.state()
        entry, exit_ = state.add_map(
            f"map_{params[0]}_{stmt.lineno}", dict(zip(params, dims))
        )
        outer_entries = [e for e, _ in self.scopes]
        for conn, memlet in range_inputs.items():
            entry.add_in_connector(conn)
            src = self.read_node(state, memlet.data)
            state.add_memlet_path(
                src, *outer_entries, entry, memlet=memlet, dst_conn=conn
            )
        self.scopes.append((entry, exit_))
        try:
            for s in stmt.body:
                if isinstance(s, ast.For):
                    self._parse_for(s)
                elif isinstance(s, ast.With):
                    self._parse_tasklet_with(s)
                elif isinstance(s, (ast.Assign, ast.AugAssign)):
                    self._parse_assign(s)
                elif isinstance(s, ast.Pass):
                    pass
                else:
                    raise FrontendError(
                        f"unsupported statement in map scope: "
                        f"{type(s).__name__}",
                        s,
                    )
        finally:
            self.scopes.pop()
        # A map whose entry stayed unconnected gets an ordering edge so the
        # scope remains well-formed.
        if state.in_degree(entry) == 0 and state.out_degree(entry) == 0:
            state.remove_node(entry)
            state.remove_node(exit_)

    def _rewrite_range_reads(self, slc: ast.expr, inputs: Dict[str, Memlet]) -> ast.expr:
        """Replace array reads in map range bounds with connector names."""
        # Only rewrite inside slice bounds; a bare tuple of slices is fine.
        return ast.fix_missing_locations(
            _RangeReadRewriter(self, inputs).visit(slc)
        )

    # ------------------------------------------------------------ interstate
    def _parse_range_loop(self, stmt: ast.For) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise FrontendError("loop variable must be a plain name", stmt)
        var = stmt.target.id
        args = [self._code(a) for a in stmt.iter.args]  # type: ignore[attr-defined]
        if len(args) == 1:
            init, cond_end, step = "0", args[0], "1"
        elif len(args) == 2:
            init, cond_end, step = args[0], args[1], "1"
        else:
            init, cond_end, step = args
        before = self.state()
        guard = self.fresh_state(f"{var}_guard")
        self.sdfg.add_edge(before, guard, InterstateEdge(assignments={var: init}))
        body_first = self.fresh_state(f"{var}_body")
        descending = False
        try:
            descending = int(str(step)) < 0
        except ValueError:
            descending = str(step).lstrip().startswith("-")
        cond = f"{var} > {cond_end}" if descending else f"{var} < {cond_end}"
        self.sdfg.add_edge(guard, body_first, InterstateEdge(condition=cond))
        self.cur = body_first
        for s in stmt.body:
            self.parse_statement(s)
        body_last = self.cur
        self.sdfg.add_edge(
            body_last, guard, InterstateEdge(assignments={var: f"{var} + {step}"})
        )
        after = self.fresh_state(f"{var}_end")
        self.sdfg.add_edge(
            guard, after, InterstateEdge(condition=Not.make(parse_expr(cond)))
        )
        self.cur = after

    def _parse_while(self, stmt: ast.While) -> None:
        if self.scopes:
            raise FrontendError("while inside map scopes is unsupported", stmt)
        cond = self._condition_code(stmt.test)
        before = self.state()
        guard = self.fresh_state("while_guard")
        self.sdfg.add_edge(before, guard, InterstateEdge())
        body_first = self.fresh_state("while_body")
        self.sdfg.add_edge(guard, body_first, InterstateEdge(condition=cond))
        self.cur = body_first
        for s in stmt.body:
            self.parse_statement(s)
        self.sdfg.add_edge(self.cur, guard, InterstateEdge())
        after = self.fresh_state("while_end")
        self.sdfg.add_edge(
            guard, after, InterstateEdge(condition=Not.make(parse_expr(cond)))
        )
        self.cur = after

    def _parse_if(self, stmt: ast.If) -> None:
        if self.scopes:
            raise FrontendError(
                "data-dependent branches inside maps require a nested SDFG",
                stmt,
            )
        cond_src = self._condition_code(stmt.test)
        cond = parse_expr(cond_src)
        before = self.state()
        then_first = self.fresh_state("if_body")
        self.sdfg.add_edge(before, then_first, InterstateEdge(condition=cond))
        self.cur = then_first
        for s in stmt.body:
            self.parse_statement(s)
        then_last = self.cur
        join = self.fresh_state("if_join")
        self.sdfg.add_edge(then_last, join, InterstateEdge())
        if stmt.orelse:
            else_first = self.fresh_state("else_body")
            self.sdfg.add_edge(
                before, else_first, InterstateEdge(condition=Not.make(cond))
            )
            self.cur = else_first
            for s in stmt.orelse:
                self.parse_statement(s)
            self.sdfg.add_edge(self.cur, join, InterstateEdge())
        else:
            self.sdfg.add_edge(before, join, InterstateEdge(condition=Not.make(cond)))
        self.cur = join

    # -------------------------------------------------------------- tasklets
    def _parse_tasklet_with(self, stmt: ast.With) -> None:
        item = stmt.items[0].context_expr
        language = Language.Python
        code_global = ""
        if isinstance(item, ast.Call):
            target = item.func
            for kw in item.keywords:
                if kw.arg == "language":
                    lang = self._eval_static(kw.value)
                    language = lang if isinstance(lang, Language) else Language.CPP
                elif kw.arg == "code_global":
                    code_global = ast.literal_eval(kw.value)
        else:
            target = item
        if not self._is_sentinel(target, _TaskletSentinel):
            raise FrontendError("with-blocks must use rp.tasklet", stmt)
        inputs: Dict[str, Memlet] = {}
        outputs: Dict[str, Memlet] = {}
        direct_inputs: Dict[str, Any] = {}
        code_stmts: List[str] = []
        for s in stmt.body:
            # Indirect reads (x[A_col[j]], Appendix F) expand into an
            # indirection subgraph feeding the tasklet a scalar transient.
            ind = self._try_indirect_decl(s)
            if ind is not None:
                conn, acc_node, memlet = ind
                direct_inputs[conn] = (acc_node, memlet)
                continue
            memlet_decl = self._try_memlet_decl(s)
            if memlet_decl is not None:
                conn, memlet, is_input = memlet_decl
                (inputs if is_input else outputs)[conn] = memlet
            elif isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant):
                if isinstance(s.value.value, str) and language == Language.CPP:
                    code_stmts.append(textwrap.dedent(s.value.value))
            else:
                code_stmts.append(ast.unparse(s))
        code = "\n".join(code_stmts)
        state = self.state()
        all_in = list(inputs) + list(direct_inputs)
        tasklet = state.add_tasklet(
            f"tasklet_{stmt.lineno}", all_in, outputs.keys(), code,
            language=language, code_global=code_global,
        )
        self._wire_tasklet(state, tasklet, inputs, outputs)
        for conn, (acc, memlet) in direct_inputs.items():
            state.add_edge(acc, tasklet, memlet, None, conn)

    def _try_memlet_decl(self, s: ast.stmt):
        """Recognize ``conn << container[subset]`` / ``conn >> ...``."""
        if not isinstance(s, ast.Expr) or not isinstance(s.value, ast.BinOp):
            return None
        op = s.value.op
        if not isinstance(op, (ast.LShift, ast.RShift)):
            return None
        is_input = isinstance(op, ast.LShift)
        conn_node = s.value.left
        src = s.value.right
        if not isinstance(conn_node, ast.Name):
            raise FrontendError("memlet local must be a plain name", s)
        memlet = self._parse_memlet_expr(src)
        return conn_node.id, memlet, is_input

    def _try_indirect_decl(self, s: ast.stmt):
        """Recognize ``conn << arr[index-with-array-reads]`` and build the
        Appendix F indirection subgraph.  Returns (conn, access, memlet)."""
        if not isinstance(s, ast.Expr) or not isinstance(s.value, ast.BinOp):
            return None
        if not isinstance(s.value.op, ast.LShift):
            return None
        conn_node, src = s.value.left, s.value.right
        if not isinstance(conn_node, ast.Name) or not isinstance(src, ast.Subscript):
            return None
        base = src.value
        if isinstance(base, ast.Call):
            base = base.func
        if not isinstance(base, ast.Name):
            return None
        data = self.resolve(base.id)
        if data not in self.sdfg.arrays:
            return None
        indirect = any(
            isinstance(inner, ast.Subscript)
            and isinstance(inner.value, ast.Name)
            and self.resolve(inner.value.id) in self.sdfg.arrays
            for inner in ast.walk(src.slice)
        )
        if not indirect:
            return None
        conn = conn_node.id
        state = self.state()
        desc = self.sdfg.arrays[data]
        inner_inputs: Dict[str, Memlet] = {}
        new_slice = self._rewrite_reads(src.slice, inner_inputs, s)
        idx = self._subset_str(new_slice).replace("|", ", ")
        inner_inputs["__arr"] = Memlet(
            data=data,
            subset=", ".join(f"0:{d}" for d in desc.shape),
            volume=1,
            dynamic=True,
        )
        tname, _ = self.sdfg.add_transient(f"__ind_{conn}", (1,), desc.dtype)
        ind_tasklet = state.add_tasklet(
            f"indirection_{conn}",
            inner_inputs.keys(),
            ["__val"],
            f"__val = __arr[{idx}]",
        )
        self._wire_tasklet(state, ind_tasklet, inner_inputs, {})
        acc = state.add_access(tname)
        state.add_edge(ind_tasklet, acc, Memlet.simple(tname, "0"), "__val", None)
        return conn, acc, Memlet.simple(tname, "0")

    def _parse_memlet_expr(self, node: ast.expr) -> Memlet:
        """Parse the right-hand side of a memlet declaration (Fig. 3)."""
        subset_str: Optional[str] = None
        volume = None
        dynamic = False
        wcr = None
        base = node
        if isinstance(base, ast.Subscript):
            subset_str = self._subset_str(base.slice).replace("|", ", ")
            base = base.value
        if isinstance(base, ast.Call):
            args = base.args
            if args:
                first = args[0]
                if self._is_sentinel(first, _Dyn) or (
                    isinstance(first, ast.Name) and first.id == "dyn"
                ):
                    dynamic = True
                    volume = 1
                elif isinstance(first, ast.Constant) and first.value == -1:
                    dynamic = True
                    volume = 1
                else:
                    volume = self._code(first)
            if len(args) > 1:
                wcr = self._parse_wcr(args[1])
            base = base.func
        if not isinstance(base, ast.Name):
            raise FrontendError(f"cannot parse memlet container {ast.dump(base)}")
        data = self.resolve(base.id)
        if data not in self.sdfg.arrays:
            raise FrontendError(f"memlet references unknown container {data!r}", node)
        desc = self.sdfg.arrays[data]
        if subset_str is None:
            if isinstance(desc, Stream):
                subset_str = ", ".join("0" for _ in desc.shape)
                dynamic = True
            else:
                subset_str = ", ".join(f"0:{s}" for s in desc.shape)
        if isinstance(desc, Stream):
            dynamic = True
            volume = volume or 1
        return Memlet(
            data=data, subset=subset_str, volume=volume, dynamic=dynamic, wcr=wcr
        )

    def _parse_wcr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Lambda):
            return ast.unparse(node)
        name = ast.unparse(node)
        tail = name.rsplit(".", 1)[-1]
        if tail in ("sum", "product", "min", "max"):
            return tail
        raise FrontendError(f"unsupported WCR specification {name!r}", node)

    def _wire_tasklet(self, state, tasklet, inputs, outputs) -> None:
        entries = [e for e, _ in self.scopes]
        exits = [x for _, x in reversed(self.scopes)]
        for conn, memlet in inputs.items():
            src = self.read_node(state, memlet.data)
            path = [src] + entries + [tasklet]
            state.add_memlet_path(*path, memlet=memlet, dst_conn=conn)
        if not inputs and entries:
            state.add_nedge(entries[-1], tasklet)
        for conn, memlet in outputs.items():
            dst = self.write_node(state, memlet.data)
            path = [tasklet] + exits + [dst]
            state.add_memlet_path(*path, memlet=memlet, src_conn=conn)
        if not outputs and exits:
            state.add_nedge(tasklet, exits[0])

    # ----------------------------------------------------- assignments (maps)
    def _parse_assign(self, stmt) -> None:
        if self.scopes:
            self._implicit_tasklet(stmt)
            return
        # Point-element assignments at state level (A[i, j] = expr) become
        # single-execution implicit tasklets (common in solver kernels).
        target = stmt.target if isinstance(stmt, ast.AugAssign) else stmt.targets[0]
        if isinstance(target, ast.Subscript) and self._is_point_target(target):
            self._implicit_tasklet(stmt)
            return
        self._parse_toplevel_assign(stmt)

    def _is_point_target(self, target: ast.Subscript) -> bool:
        if not isinstance(target.value, ast.Name):
            return False
        if self.resolve(target.value.id) not in self.sdfg.arrays:
            return False
        slc = target.slice
        elts = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        return not any(isinstance(e, ast.Slice) for e in elts)

    def _implicit_tasklet(self, stmt) -> None:
        """``C[i, j] = f(A[i, k], ...)`` inside a map becomes a tasklet."""
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise FrontendError("chained assignment unsupported", stmt)
            target, value, wcr = stmt.targets[0], stmt.value, None
        else:  # AugAssign
            target, value = stmt.target, stmt.value
            wcr = {
                ast.Add: "sum",
                ast.Mult: "product",
            }.get(type(stmt.op))
            if wcr is None:
                raise FrontendError(
                    "only += and *= map to conflict resolution", stmt
                )
        if not isinstance(target, ast.Subscript):
            raise FrontendError(
                "assignments in maps must write array elements", stmt
            )
        inputs: Dict[str, Memlet] = {}
        self._conn_count = 0
        new_value = self._rewrite_reads(value, inputs, stmt)
        out_memlet = self._target_memlet(target, wcr, stmt)
        code = f"__out = {ast.unparse(new_value)}"
        state = self.state()
        tasklet = state.add_tasklet(
            f"assign_{stmt.lineno}", inputs.keys(), ["__out"], code
        )
        self._wire_tasklet(state, tasklet, inputs, {"__out": out_memlet})

    def _rewrite_reads(self, node: ast.expr, inputs: Dict[str, Memlet], ctx) -> ast.expr:
        """Replace array reads with connector names, collecting memlets.

        Indirect accesses (``x[col[j]]``, Appendix F) produce a full-range
        dynamic memlet plus in-code indexing of the connector.
        """
        new = _ReadRewriter(self, inputs).visit(node)
        return ast.fix_missing_locations(new)

    def _fresh_conn(self, inputs) -> str:
        conn = f"__in{len(inputs)}"
        while conn in inputs:
            conn += "_"
        return conn

    def _target_memlet(self, target: ast.Subscript, wcr, ctx) -> Memlet:
        if not isinstance(target.value, ast.Name):
            raise FrontendError("unsupported assignment target", ctx)
        data = self.resolve(target.value.id)
        if data not in self.sdfg.arrays:
            raise FrontendError(f"write to unknown container {data!r}", ctx)
        indirect = any(
            isinstance(inner, ast.Subscript)
            and isinstance(inner.value, ast.Name)
            and self.resolve(inner.value.id) in self.sdfg.arrays
            for inner in ast.walk(target.slice)
        )
        if indirect:
            raise FrontendError(
                "indirect writes need an explicit tasklet with a dynamic "
                "memlet",
                ctx,
            )
        subset = self._subset_str(target.slice).replace("|", ", ")
        return Memlet(data=data, subset=subset, wcr=wcr)

    # ------------------------------------------------- top-level assignments
    def _parse_toplevel_assign(self, stmt) -> None:
        if isinstance(stmt, ast.AugAssign):
            # x += y at state level: expand to x = x + y elementwise.
            binop = ast.BinOp(
                left=stmt.target, op=stmt.op, right=stmt.value
            )
            ast.fix_missing_locations(binop)
            stmt = ast.Assign(targets=[stmt.target], value=binop)
            ast.fix_missing_locations(stmt)
        target = stmt.targets[0]
        if isinstance(target, ast.Subscript):
            self._toplevel_subscript_assign(target, stmt.value, stmt)
            return
        if not isinstance(target, ast.Name):
            raise FrontendError("unsupported assignment target", stmt)
        tname = target.id
        out = self.resolve(tname) if tname in self.aliases or tname in self.sdfg.arrays else None
        result = self._eval_array_expr(stmt.value, out=out, stmt=stmt)
        if out is None:
            if not isinstance(result, str):
                raise FrontendError(
                    "scalar state-level assignments are not supported; "
                    "declare a container first",
                    stmt,
                )
            self.aliases[tname] = result
        elif isinstance(result, str) and result != out:
            # Copy result into the declared output container.
            state = self.state()
            src = self.read_node(state, result)
            dst = self.write_node(state, out)
            state.add_edge(
                src, dst, Memlet.from_array(result, self.sdfg.arrays[result]),
                None, None,
            )

    def _toplevel_subscript_assign(self, target: ast.Subscript, value, stmt) -> None:
        """Slice copies: ``B[a:b] = A[c:d]`` and constant fills."""
        if not isinstance(target.value, ast.Name):
            raise FrontendError("unsupported assignment target", stmt)
        data = self.resolve(target.value.id)
        dsub = self._subset_str(target.slice).replace("|", ", ")
        state = self.state()
        if isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name):
            src_name = self.resolve(value.value.id)
            if src_name in self.sdfg.arrays:
                ssub = self._subset_str(value.slice).replace("|", ", ")
                src = self.read_node(state, src_name)
                dst = self.write_node(state, data)
                state.add_edge(
                    src, dst,
                    Memlet(data=src_name, subset=ssub, other_subset=dsub),
                    None, None,
                )
                return
        if isinstance(value, ast.Constant):
            # Fill with a constant through a map.
            subset = Subset.from_string(dsub)
            params = {}
            idx_parts = []
            for d, rng in enumerate(subset.ranges):
                if rng.is_point():
                    idx_parts.append(str(rng.start))
                else:
                    p = f"__f{d}"
                    params[p] = f"{rng.start}:{rng.end}:{rng.step}"
                    idx_parts.append(p)
            state.add_mapped_tasklet(
                f"fill_{stmt.lineno}",
                params or {"__f0": "0:1"},
                inputs={},
                code=f"__out = {value.value!r}",
                outputs={"__out": Memlet.simple(data, ", ".join(idx_parts))},
                output_nodes={data: self.write_node(state, data)},
            )
            return
        if isinstance(value, ast.Name):
            src_name = self.resolve(value.id)
            if src_name in self.sdfg.arrays:
                desc = self.sdfg.arrays[src_name]
                src = self.read_node(state, src_name)
                dst = self.write_node(state, data)
                state.add_edge(
                    src, dst,
                    Memlet(
                        data=src_name,
                        subset=", ".join(f"0:{s}" for s in desc.shape),
                        other_subset=dsub,
                    ),
                    None, None,
                )
                return
        raise FrontendError("unsupported slice assignment form", stmt)

    def _eval_array_expr(self, node: ast.expr, out: Optional[str], stmt):
        """Evaluate a whole-array expression, returning a container name
        (or a Python constant for pure scalars)."""
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            name = self.resolve(node.id)
            if name in self.sdfg.arrays:
                return name
            if node.id in self.env and isinstance(self.env[node.id], (int, float)):
                return self.env[node.id]
            raise FrontendError(f"unknown name {node.id!r}", stmt)
        if isinstance(node, ast.BinOp):
            left = self._eval_array_expr(node.left, None, stmt)
            right = self._eval_array_expr(node.right, None, stmt)
            state = self.state()
            if isinstance(node.op, ast.MatMult):
                return npops.expand_matmul(self, state, left, right, out)
            opmap = {
                ast.Add: "+",
                ast.Sub: "-",
                ast.Mult: "*",
                ast.Div: "/",
                ast.Pow: "**",
            }
            op = opmap.get(type(node.op))
            if op is None:
                raise FrontendError("unsupported array operator", stmt)
            if isinstance(left, str):
                return npops.expand_elementwise_binop(self, state, op, left, right, out)
            if isinstance(right, str):
                # Scalar op array: commute where possible.
                if op in ("+", "*"):
                    return npops.expand_elementwise_binop(
                        self, state, op, right, left, out
                    )
                raise FrontendError(
                    "scalar-minus/divide-array expansion unsupported", stmt
                )
            return eval(f"{left!r} {op} {right!r}")  # constant folding
        if isinstance(node, ast.Call):
            fname = ast.unparse(node.func)
            impl = npops.lookup(fname)
            if impl is None:
                raise FrontendError(
                    f"no dataflow implementation registered for {fname!r}; "
                    "add one with @replaces (falling back to Python is "
                    "unsupported in this reproduction)",
                    stmt,
                )
            args = [self._eval_array_expr(a, None, stmt) for a in node.args]
            kwargs = {}
            for kw in node.keywords:
                kwargs[kw.arg] = ast.literal_eval(kw.value)
            return impl(self, self.state(), out, *args, **kwargs)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            val = self._eval_array_expr(node.operand, None, stmt)
            if isinstance(val, str):
                return npops.expand_elementwise_unary(self, self.state(), "neg", val, out)
            return -val
        raise FrontendError(
            f"unsupported array expression {type(node).__name__}", stmt
        )

    # ----------------------------------------------------------- annotations
    def _parse_annassign(self, stmt: ast.AnnAssign) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise FrontendError("unsupported annotated target", stmt)
        ann = self._eval_static(stmt.annotation)
        name = stmt.target.id
        if isinstance(ann, Data):
            desc = ann.clone()
            desc.transient = True
            self.sdfg.add_datadesc(name, desc)
        elif isinstance(ann, typeclass):
            self.sdfg.add_scalar(name, ann, transient=True)
        else:
            raise FrontendError(f"unsupported declaration {ann!r}", stmt)
        if stmt.value is not None:
            assign = ast.Assign(targets=[stmt.target], value=stmt.value)
            ast.fix_missing_locations(assign)
            assign.lineno = stmt.lineno
            self._parse_assign(assign)

    # ------------------------------------------------------------- rendering
    def _code(self, node: ast.expr) -> str:
        return ast.unparse(node)

    def _condition_code(self, node: ast.expr) -> str:
        """Render an interstate condition, mapping single-element container
        reads (``v[0]``) to the container name the runtime binds."""
        tree = _ConditionRewriter(self).visit(node)
        return ast.unparse(ast.fix_missing_locations(tree))

    def _subset_str(self, slc: ast.expr) -> str:
        """Render a subscript slice as '|'-separated dimension strings."""
        elts = slc.elts if isinstance(slc, ast.Tuple) else [slc]
        dims = []
        for e in elts:
            if isinstance(e, ast.Slice):
                lo = ast.unparse(e.lower) if e.lower is not None else "0"
                hi = ast.unparse(e.upper) if e.upper is not None else None
                if hi is None:
                    raise FrontendError("open-ended slices unsupported", e)
                part = f"{lo}:{hi}"
                if e.step is not None:
                    part += f":{ast.unparse(e.step)}"
                dims.append(part)
            else:
                dims.append(ast.unparse(e))
        return "|".join(dims)
