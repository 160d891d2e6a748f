"""Unit tests for the mini-C lexer and semantic checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minic import (
    CLexError,
    CParseError,
    CTokenKind,
    check_c,
    kernel_externals,
    number_value,
    tokenize_c,
)
from repro.minic.checker import _Checker


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize_c("int x = 0x1f | foo(2);")
        kinds = [t.kind for t in tokens[:-1]]
        assert kinds == [CTokenKind.IDENT, CTokenKind.IDENT,
                         CTokenKind.OPERATOR, CTokenKind.NUMBER,
                         CTokenKind.OPERATOR, CTokenKind.IDENT,
                         CTokenKind.PUNCT, CTokenKind.NUMBER,
                         CTokenKind.PUNCT, CTokenKind.PUNCT]

    def test_maximal_munch(self):
        texts = [t.text for t in tokenize_c("a <<= b >> c")[:-1]]
        assert texts == ["a", "<<=", "b", ">>", "c"]

    def test_directive_is_one_token(self):
        tokens = tokenize_c("#define FOO 1\nbar")
        assert tokens[0].kind is CTokenKind.DIRECTIVE
        assert tokens[1].text == "bar"

    def test_comments_skipped(self):
        tokens = tokenize_c("a /* b */ c // d\ne")
        assert [t.text for t in tokens[:-1]] == ["a", "c", "e"]

    def test_char_and_string_literals(self):
        tokens = tokenize_c("'a' \"hi\\\"there\"")
        assert tokens[0].kind is CTokenKind.CHAR
        assert tokens[1].kind is CTokenKind.STRING

    def test_bad_numeric_literal(self):
        with pytest.raises(CLexError):
            tokenize_c("int x = 0x;")
        with pytest.raises(CLexError):
            tokenize_c("int x = 12ab;")

    def test_octal_and_hex_values(self):
        assert number_value("0x1F") == 31
        assert number_value("010") == 8
        assert number_value("42UL") == 42

    def test_bad_octal(self):
        with pytest.raises(CLexError):
            tokenize_c("int x = 09;")


CLEAN = """
#define PORT 0x3f8
int read_port(void)
{
    int value;
    value = inb(PORT) & 0xff;
    return value;
}
"""


class TestCheckerDetection:
    def test_clean_fragment(self):
        assert not check_c(CLEAN, kernel_externals()).detected()

    def test_undeclared_identifier(self):
        bad = CLEAN.replace("return value;", "return valve;")
        result = check_c(bad, kernel_externals())
        assert result.errors

    def test_undeclared_macro_use(self):
        bad = CLEAN.replace("inb(PORT)", "inb(PROT)")
        assert check_c(bad, kernel_externals()).errors

    def test_macro_body_checked(self):
        source = "#define A FOO\nint f(void) { return A; }\n"
        assert check_c(source).errors

    def test_implicit_function_declaration_is_warning(self):
        bad = CLEAN.replace("inb(", "inq(")
        result = check_c(bad, kernel_externals())
        assert not result.errors
        assert result.warnings
        assert result.detected(warnings_detect=True)
        assert not result.detected(warnings_detect=False)

    def test_constant_mutation_silent(self):
        bad = CLEAN.replace("0x3f8", "0x3f0").replace("0xff", "0xfe")
        assert not check_c(bad, kernel_externals()).detected()

    def test_operator_mutation_silent(self):
        bad = CLEAN.replace("& 0xff", "&& 0xff")
        assert not check_c(bad, kernel_externals()).detected()

    def test_assignment_to_rvalue(self):
        source = "void f(void) { int a; (a + 1) = 2; }"
        assert check_c(source).errors

    def test_redefinition_in_scope(self):
        source = "void f(void) { int a; int a; }"
        assert check_c(source).errors

    def test_shadowing_in_inner_scope_ok(self):
        source = "void f(void) { int a; { int a; a = 1; } }"
        assert not check_c(source).detected()

    def test_calling_a_variable(self):
        source = "void f(void) { int a; a = 0; a(1); }"
        assert check_c(source).errors

    def test_macro_arity_checked(self):
        source = ("#define TWICE(x) ((x) * 2)\n"
                  "int f(void) { return TWICE(1, 2); }\n")
        assert check_c(source).errors

    def test_known_function_arity_warns(self):
        source = "void f(void) { outb(1); }"
        result = check_c(source, kernel_externals())
        assert result.warnings

    def test_defined_functions_collected(self):
        result = check_c(CLEAN, kernel_externals())
        assert result.defined_functions == {"read_port"}

    def test_macro_redefinition_warns(self):
        source = "#define A 1\n#define A 2\nint f(void) { return A; }\n"
        assert check_c(source).warnings


class TestCheckerParsing:
    def test_control_flow_statements(self):
        source = """
void f(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (i == 3)
            continue;
        else
            n--;
    }
    while (n > 0)
        n -= 1;
    do { n++; } while (n < 2);
}
"""
        assert not check_c(source).detected()

    def test_pointers_arrays_casts(self):
        source = """
void f(unsigned short *buf, int n)
{
    unsigned char bytes[4];
    buf[0] = (unsigned short)(bytes[1] << 8);
    *(buf + 1) = sizeof(int);
    n = -n;
}
"""
        assert not check_c(source).detected()

    def test_conditional_expression(self):
        source = "int f(int a) { return a ? 1 : 2; }"
        assert not check_c(source).detected()

    def test_syntax_error_raises(self):
        with pytest.raises(CParseError):
            check_c("int f(void) { return ; ; } }")

    def test_keyword_in_expression_rejected(self):
        with pytest.raises(CParseError):
            check_c("int f(void) { return if; }")

    def test_prototypes_accepted(self):
        source = "extern int helper(int a, int b);\n" \
                 "int f(void) { return helper(1, 2); }\n"
        assert not check_c(source).detected()


class TestCorpusCleanliness:
    """Every unmutated corpus program must check clean (the baseline
    requirement of the mutation analysis)."""

    @pytest.mark.parametrize("name", ["BUSMOUSE_C", "IDE_C", "NE2000_C"])
    def test_c_corpus_clean(self, name):
        from repro.mutation import corpus
        source = getattr(corpus, name)
        assert not check_c(source, kernel_externals()).detected()

    @pytest.mark.parametrize("name,specs", [
        ("BUSMOUSE_CDEVIL", [("busmouse", "bm")]),
        ("IDE_CDEVIL", [("ide", "ide"), ("piix4", "pii")]),
        ("NE2000_CDEVIL", [("ne2000", "ne")]),
    ])
    def test_cdevil_corpus_clean(self, name, specs):
        from repro.mutation import corpus
        from repro.mutation.targets import stub_externals
        from tests.conftest import shipped_spec
        source = getattr(corpus, name)
        externals = kernel_externals()
        constants = set()
        for spec_name, prefix in specs:
            functions, consts = stub_externals(
                shipped_spec(spec_name).model, prefix)
            externals.update(functions)
            constants.update(consts)
        result = check_c(source, externals, constants)
        assert not result.detected(), [str(d) for d in result.diagnostics]


class _LadderChecker(_Checker):
    """The checker with the recursive one-call-per-level expression
    ladder that precedence climbing replaced."""

    def _binary_expression(self, level):
        if level >= len(self._BINARY_LEVELS):
            return self._unary_expression()
        lvalue = self._binary_expression(level + 1)
        operators = self._BINARY_LEVELS[level]
        while self._current.kind is CTokenKind.OPERATOR and \
                self._current.text in operators:
            self._advance()
            self._binary_expression(level + 1)
            lvalue = False
        return lvalue


def _diagnose(checker_class, source):
    """Diagnostics in order, plus the parse error that ended the run."""
    checker = checker_class(tokenize_c(source), kernel_externals(),
                            {"K"})
    try:
        checker.run()
        ending = None
    except CParseError as error:
        ending = str(error)
    return [str(d) for d in checker.result.diagnostics], ending


_OPERANDS = ["x", "y", "nope", "K", "1", "(x)", "f(x)", "inb(1, 2)",
             "*p", "&x", "-x", "!y", "x++", "--y", "x[1]", "s.m", "p->m"]
_OPERATORS = [op for level in _Checker._BINARY_LEVELS for op in level] + \
    ["=", "+=", "<<=", "?", ":", ",", "++"]
_EXPRESSION = st.lists(st.sampled_from(_OPERANDS + _OPERATORS +
                                       ["(", ")"]),
                       min_size=1, max_size=12).map(" ".join)


class TestPrecedenceClimbing:
    """Same diagnostics, in the same order, as the recursive ladder."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_EXPRESSION, min_size=1, max_size=3))
    def test_expressions_match_ladder(self, statements):
        source = "int x; int y; int *p;\n" + "\n".join(
            f"{statement};" for statement in statements)
        assert _diagnose(_Checker, source) == \
            _diagnose(_LadderChecker, source)

    @pytest.mark.parametrize("source", [
        "x = 1 + 2 * 3 << 4 == 5 && x || y;",
        "1 + 2 = x;",
        "x * y = 1;",
        "(x) = a - b - c;",
        "x = y ? a : b = 3;",
        "x = 1 +;",
    ])
    def test_named_cases(self, source):
        source = "int x; int y;\n" + source
        assert _diagnose(_Checker, source) == \
            _diagnose(_LadderChecker, source)

    def test_corpus_programs(self):
        from repro.mutation import corpus
        for source in (corpus.BUSMOUSE_C, corpus.IDE_C, corpus.NE2000_C,
                       corpus.BUSMOUSE_CDEVIL, corpus.IDE_CDEVIL,
                       corpus.NE2000_CDEVIL):
            assert _diagnose(_Checker, source) == \
                _diagnose(_LadderChecker, source)
