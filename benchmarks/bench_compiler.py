"""Compiler performance: each front-end phase and backend per spec.

Not a paper table, but the practical cost a driver build pays per
specification, one row per (phase, spec): ``lex`` (the whole token
list), ``parse`` (a full parse of those tokens), ``check`` (the static
verification of that tree), then ``emit_c`` and ``emit_python`` (the
two backends over the checked model).  Each phase starts from the
previous one's output, built outside the timer.
"""

import pytest

from repro.devil.checker import check
from repro.devil.codegen.c_backend import generate_c_header
from repro.devil.lexer import tokenize
from repro.devil.parser import parse
from repro.devil.specialize import generate_python_module
from repro.specs import SPEC_NAMES, load_source

PHASES = ("lex", "parse", "check", "emit_c", "emit_python")


@pytest.mark.parametrize("name", SPEC_NAMES)
@pytest.mark.parametrize("phase", PHASES)
def test_phase(benchmark, phase, name):
    source = load_source(name)
    tokens = tokenize(source)
    syntax = parse(source, tokens=tokens)
    model = check(syntax)
    if phase == "emit_c":
        def forget_header():
            # The header is memoized on the model: drop it, untimed,
            # so that every round emits.
            model.__dict__.pop("_c_header_memo", None)

        benchmark.pedantic(generate_c_header, args=(model,),
                           setup=forget_header, rounds=100)
        return
    benchmark({
        "lex": lambda: tokenize(source),
        "parse": lambda: parse(source, tokens=tokens),
        "check": lambda: check(syntax),
        "emit_python": lambda: generate_python_module(model),
    }[phase])
