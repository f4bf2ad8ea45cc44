"""The frontend reads a program's source by slicing its file's cached
lines at the line numbers its code records (``astparser._sliced_tree``),
not by tokenizing it (``inspect.getsource``).  Both must give the same
tree, line numbers included, for every function the corpus parses and
for the shapes the slice has to extend over; where the slice is not one
``def``, the frontend falls back to ``inspect.getsource``."""

import ast
import inspect
import linecache
import textwrap
import types

import pytest

import repro as rp
from repro.codegen import python_gen, pytranslate
from repro.frontend import astparser
from repro.frontend.astparser import FrontendError
from repro.workloads import kernels, polybench

N = rp.symbol("N")


def _dump(tree):
    return ast.dump(tree, include_attributes=True)


def _tokenized_tree(f):
    return ast.parse(textwrap.dedent(inspect.getsource(f)))


def _assert_same_tree(f):
    sliced = astparser._sliced_tree(f)
    assert sliced is not None, f.__qualname__
    assert _dump(sliced) == _dump(_tokenized_tree(f)), f.__qualname__


KERNEL_BUILDERS = (
    kernels.gemm_chain_sdfg, kernels.histogram_sdfg, kernels.jacobi2d_sdfg,
    kernels.matmul_sdfg, kernels.query_sdfg, kernels.spmv_sdfg,
)


def test_every_corpus_function_slices_to_the_tokenized_tree(monkeypatch):
    seen = []
    parse = astparser.parse_program

    def record(f):
        seen.append(f)
        return parse(f)

    monkeypatch.setattr(astparser, "parse_program", record)
    builders = [polybench.get(n).make_sdfg for n in polybench.all_kernels()]
    for build in builders + list(KERNEL_BUILDERS):
        build()
    assert len(builders) + len(KERNEL_BUILDERS) == 36
    assert len(seen) >= 30
    for f in seen:
        _assert_same_tree(f)


# -------------------------------------------------------------- edge cases
def _decorate(tag, scale=1):
    def wrap(f):
        f.tag = (tag, scale)
        return f

    return wrap


def ends_in_pass(A: rp.float64[N]):
    for i in rp.map[0:N]:
        A[i] = 1.0
        pass


def ends_in_a_declaration(A: rp.float64[N]):
    A[0] = 1.0
    tmp: rp.float64[N]  # noqa: F842


def ends_in_a_comment(A: rp.float64[N]):
    A[0] = 1.0
    # a trailing comment at the body's indentation
        # and one deeper still


def ends_in_a_nested_def(A: rp.float64[N]):
    A[0] = 1.0

    def helper(x):
        return (
            x + 1
        )


@_decorate(
    "two lines",
    scale=3,
)
def decorated_with_arguments(A: rp.float64[N]):
    A[0] = 2.0


def one_line(A: rp.float64[N]): A[0] = 3.0  # noqa: E704


class Holder:
    @staticmethod
    def indented(A: rp.float64[N]):
        A[0] = 4.0
# a comment at column 0 right after an indented def


@pytest.mark.parametrize("f", [
    ends_in_pass, ends_in_a_declaration, ends_in_a_comment, ends_in_a_nested_def,
    decorated_with_arguments, one_line, Holder.indented,
], ids=lambda f: f.__name__)
def test_edge_case_slices_to_the_tokenized_tree(f):
    _assert_same_tree(f)


def _functions(module):
    """Every ``def`` of ``module``'s file, nested ones and methods
    included, as functions built from the compiled file's code objects."""
    path = module.__file__
    source = open(path).read()
    starts = {
        (min([d.lineno for d in node.decorator_list] + [node.lineno]), node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
    }
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if (code.co_firstlineno, code.co_name) in starts:
            cells = tuple(types.CellType() for _ in code.co_freevars)
            yield types.FunctionType(code, module.__dict__, code.co_name, None, cells)


@pytest.mark.parametrize("module", [astparser, pytranslate, python_gen], ids=lambda m: m.__name__)
def test_every_def_of_a_module_slices_to_the_tokenized_tree(module):
    # Multi-line signatures, calls and strings, decorators, nested
    # closures and methods: far more shapes than the corpus has.
    functions = list(_functions(module))
    assert len(functions) > 20
    for f in functions:
        _assert_same_tree(f)


class _LineTableOnly:
    """The part of a code object the cut may read: ``co_lines`` and
    ``co_consts``, which Python 3.10 has (``co_positions`` came in 3.11)."""

    def __init__(self, code):
        self.co_lines = code.co_lines
        self.co_consts = code.co_consts


@pytest.mark.parametrize("f", [ends_in_pass, ends_in_a_nested_def, one_line], ids=lambda f: f.__name__)
def test_the_cut_reads_only_the_line_table_of_every_supported_python(f):
    assert astparser._last_line(_LineTableOnly(f.__code__)) == astparser._last_line(f.__code__)


def test_the_slice_extends_past_the_last_instruction():
    # A bare annotation leaves no instruction: the line table stops a line
    # short, and only the extension over deeper lines reaches it.
    code = ends_in_a_declaration.__code__
    last = code.co_firstlineno + len(inspect.getsource(ends_in_a_declaration).splitlines()) - 1
    assert astparser._last_line(code) == last - 1


@pytest.mark.parametrize("f", [ends_in_pass, ends_in_a_declaration], ids=lambda f: f.__name__)
def test_a_sliced_program_builds(f):
    sdfg = rp.program(f).to_sdfg()
    assert sdfg.name == f.__name__ and sdfg.arrays["A"].shape == (N,)


_EXEC_SOURCE = """\
def from_string(A: rp.float64[N]):
    A[0] = 5.0
"""


def _exec(filename):
    namespace = {"rp": rp, "N": N}
    exec(compile(_EXEC_SOURCE, filename, "exec"), namespace)
    return namespace["from_string"]


def test_exec_from_a_string_falls_back_to_inspect():
    f = _exec("<string>")
    assert astparser._sliced_tree(f) is None
    with pytest.raises(OSError) as slow:
        inspect.getsource(f)
    with pytest.raises(OSError) as got:
        astparser.parse_program(f)
    assert str(got.value) == str(slow.value)


def test_exec_with_cached_lines_slices():
    filename = "<repro-test-exec>"
    linecache.cache[filename] = (
        len(_EXEC_SOURCE), None, _EXEC_SOURCE.splitlines(True), filename
    )
    try:
        f = _exec(filename)
        _assert_same_tree(f)
        assert astparser.parse_program(f).name == "from_string"
    finally:
        linecache.cache.pop(filename, None)


@_decorate("line numbers count from the decorator")
def unsupported(A: rp.float64[N]):
    A[0] = 1.0
    table = {}  # noqa: F841


def test_frontend_error_keeps_its_line_number():
    lines = inspect.getsource(unsupported).splitlines()
    line = next(k for k, text in enumerate(lines, 1) if "table = {}" in text)
    with pytest.raises(FrontendError, match=rf"^line {line}: "):
        astparser.parse_program(unsupported)
