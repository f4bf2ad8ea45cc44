"""Codegen parses each tasklet string once per memo epoch and shares the
tree (``pytranslate.parse_tasklet``, through ``repro.sdfg.nodes.parse_code``),
so no analysis may change a tree it is handed; the rewrites
(``vectorize_tasklet``, ``_rename_identifiers``) parse their own.  Also
here: ``python_gen.py`` stays under the token count where CPython's
parser grows its token buffer."""

import ast
import tokenize

import pytest

from repro.codegen import python_gen, pytranslate
from repro.codegen.compiler import compile_sdfg
from repro.sdfg.nodes import TREE_ENTRIES
from repro.symbolic import memo
from repro.workloads import kernels, polybench

BUILDERS = [polybench.get(n).make_sdfg for n in polybench.all_kernels()] + [
    kernels.gemm_chain_sdfg, kernels.histogram_sdfg, kernels.jacobi2d_sdfg,
    kernels.matmul_sdfg, kernels.query_sdfg, kernels.spmv_sdfg,
]
#: The settings the generated-text checks compare: the default lowering,
#: every map on the loop tier, and the sanitizer's source.
SETTINGS = ({}, {"vectorize": False}, {"sanitize": "collect"})


def _shared_trees():
    return memo._CACHES.get("tasklet_ast", {})


def test_corpus_codegen_leaves_every_shared_tree_as_parsed():
    assert len(BUILDERS) == 36
    memo.clear()
    for build in BUILDERS:
        for options in SETTINGS:
            compile_sdfg(build(), backend="python", cache="off", fallback=False, **options)
    trees = _shared_trees()
    assert 36 < len(trees) < TREE_ENTRIES  # the table never cleared
    for (code,), tree in trees.items():
        fresh = ast.parse(code)
        assert ast.dump(tree, include_attributes=True) == ast.dump(
            fresh, include_attributes=True
        ), code


def test_a_tasklet_string_is_parsed_once_per_epoch():
    memo.clear()
    code = "out = a if a > b else b"
    tree = pytranslate.parse_tasklet(code)
    assert pytranslate.assignment_summary(code) == ({"out"}, {})
    assert pytranslate.is_vectorizable_tasklet(code)
    assert pytranslate.parse_tasklet(code) is tree
    memo.clear()
    assert pytranslate.parse_tasklet(code) is not tree


def test_a_trailing_branch_is_split_without_touching_the_tree():
    code = "x = a\nif x > 0:\n    out = x\n    pass\nelse:\n    out = 0.0\n"
    before = ast.dump(pytranslate.parse_tasklet(code))
    assert pytranslate.assignment_summary(code) == ({"x", "out"}, {})
    pytranslate.vectorize_tasklet(code, {"a": "__in_a", "out": "__out_out"})
    assert ast.dump(pytranslate.parse_tasklet(code)) == before


def test_rewrites_parse_their_own_tree():
    code = "out = min(a, b) + c"
    shared = pytranslate.parse_tasklet(code)
    before = ast.dump(shared)
    pytranslate.vectorize_tasklet(code, {"a": "__in_a", "b": "__in_b", "out": "__o"})
    python_gen._rename_identifiers(code, {"a": "x"})
    assert pytranslate.parse_tasklet(code) is shared and ast.dump(shared) == before


def test_the_tree_table_is_bounded():
    # Trees are large next to the other memo values, so a process that
    # never clears the memo (a serving worker) keeps few of them.
    memo.clear()
    for k in range(3 * TREE_ENTRIES):
        pytranslate.parse_tasklet(f"out = a * {k}")
        assert len(_shared_trees()) <= TREE_ENTRIES
    memo.clear()


def test_unparsable_tasklet_still_raises_each_time():
    for _ in range(2):
        with pytest.raises(pytranslate.CodegenError, match="cannot parse tasklet code"):
            pytranslate.parse_tasklet("out = = 1")


#: Where CPython's parser doubles its token buffer: a module at or past
#: it costs every process that compiles it about 1 MB more at import.
PARSER_BUFFER_STEP = 1 << 14


def test_python_gen_stays_under_the_parser_buffer_step():
    # The parser stores every token but comments and non-logical newlines.
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(python_gen.__file__, "rb") as fh:
        count = sum(1 for t in tokenize.tokenize(fh.readline) if t.type not in skip)
    assert count < PARSER_BUFFER_STEP, count
