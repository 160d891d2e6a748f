"""Differential tests: the regex lexers against the scanners they replaced.

``oracle_devil_lexer`` and ``oracle_minic_lexer`` are frozen copies of
the character-at-a-time scanners.  On generated ASCII inputs built from
the lexically interesting fragments of each language (quotes, comment
openers, radix prefixes, maximal-munch operators, backslash-continued
directives, newlines), each regex lexer must produce the same kinds,
texts, values and locations (offsets and lines for C), or raise the
same error class with the same message.  The oracles' quirks define the
expected behaviour, except for the changes made on purpose:

* non-ASCII characters are no longer identifier or digit characters
  (outside the generated alphabets; see ``TestAsciiOnly``);
* a Devil source ending in ``0`` lexes ``INT 0`` instead of raising
  "incomplete hexadecimal literal" (see ``_expected_devil``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devil.errors import DevilLexError, SourceLocation
from repro.devil.lexer import tokenize
from repro.minic.lexer import CLexError, tokenize_c

from . import oracle_devil_lexer, oracle_minic_lexer

DEVIL_FRAGMENTS = [
    "0", "1", "7", "9", "0x", "0X", "0b", "0B", "1f", "_", "a", "x", "b",
    "Z", "register", "int", "'", "'01.*-'", "''", "/", "*", "//", "/*",
    "*/", "<=>", "<=", "=>", "==", "=", "<", ">", ".", "..", "...", "@",
    "#", ":", ";", ",", "{", "}", "(", ")", "[", "]", "+", "-", "$", "\\",
    '"', " ", "\t", "\r", "\n",
]

C_FRAGMENTS = [
    "0", "1", "8", "9", "0x", "0X", "1e", "u", "L", "_", "a", "x", "e",
    "int", "'", "'a'", "'\\''", '"', '"s"', '"\\""', "\\", "\\\n", "#",
    "#define X ", "/", "*", "//", "/*", "*/", "<<=", ">>=", "...", "..",
    ".", "->", "<=", "==", "=", "<", ">", "!", "&", "|", "^", "~", "?",
    ":", "+", "-", "%", "(", ")", "[", "]", "{", "}", ",", ";", "@", "$",
    " ", "\t", "\r", "\n",
]


def _sources(fragments):
    return st.lists(
        st.one_of(st.sampled_from(fragments),
                  st.characters(max_codepoint=127)),
        max_size=24).map("".join)


def _devil_outcome(lex, source):
    try:
        return [(token.kind.name, token.text, token.value, token.location)
                for token in lex(source)]
    except DevilLexError as error:
        return ("error", type(error), error.message, error.location)


def _c_outcome(lex, source):
    try:
        return [(token.kind.name, token.text, token.offset, token.line)
                for token in lex(source)]
    except CLexError as error:
        return ("error", type(error), str(error))


def _expected_devil(source):
    outcome = _devil_outcome(oracle_devil_lexer.tokenize, source)
    last_column = len(source) - source.rfind("\n") - 1
    if outcome[0] == "error" and \
            outcome[2] == "incomplete hexadecimal literal" and \
            source.endswith("0") and \
            (outcome[3].line, outcome[3].column) == \
            (source.count("\n") + 1, last_column):
        # Fixed on purpose: the oracle peeks past the final '0' and
        # takes the end of input for an 'x'.  Padding the source shows
        # what the final '0' lexes to; EOF then sits one column left.
        *body, (kind, text, value, eof) = _devil_outcome(
            oracle_devil_lexer.tokenize, source + " ")
        return body + [(kind, text, value,
                        SourceLocation(eof.line, eof.column - 1,
                                       eof.filename))]
    return outcome


class TestDevilAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(_sources(DEVIL_FRAGMENTS))
    def test_same_tokens_or_same_error(self, source):
        assert _devil_outcome(tokenize, source) == _expected_devil(source)

    @pytest.mark.parametrize("source", [
        "0x1_2", "0b", "0b102", "0xg", "0x", "12ab", "1_", "00x1", "6..5",
        "<=>=", "==>", "'1\n'", "'10", "'1012'", "/*/", "/**/x", "a//b\nc",
        "x\t\r\ny", "...", "<", "\f",
    ])
    def test_quirks(self, source):
        assert _devil_outcome(tokenize, source) == _expected_devil(source)

    def test_hex_stops_at_underscore(self):
        # A quirk kept: '_' is not alphanumeric, so it ends the literal.
        tokens = tokenize("0x1_2")
        assert [(t.kind.name, t.text, t.value) for t in tokens[:-1]] == \
            [("INT", "0x1", 1), ("IDENT", "_2", None)]

    def test_shipped_specs(self):
        from repro.specs import SPEC_NAMES, load_source
        for name in SPEC_NAMES:
            source = load_source(name)
            assert _devil_outcome(tokenize, source) == \
                _expected_devil(source), name


class TestCAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(_sources(C_FRAGMENTS))
    def test_same_tokens_or_same_error(self, source):
        assert _c_outcome(tokenize_c, source) == \
            _c_outcome(oracle_minic_lexer.tokenize_c, source)

    @pytest.mark.parametrize("source", [
        "1_000", "0x", "09", "1.5e3", ".5", "..5", "a...b", "'", "''",
        "'\\", "\"a\nb\" c", "'\n' x", "'a\nb'\ny", "#define A \\\n 1\nb",
        "#x\\", "/* a\n b */ c", "/*/", "a // b", "x\f", "a->b", "a<<=b",
    ])
    def test_quirks(self, source):
        assert _c_outcome(tokenize_c, source) == \
            _c_outcome(oracle_minic_lexer.tokenize_c, source)

    def test_string_newlines_not_counted(self):
        # A quirk kept: a newline inside a literal does not advance the
        # line count.
        tokens = tokenize_c('"a\nb" c')
        assert tokens[1].text == "c" and tokens[1].line == 1

    def test_corpus(self):
        from repro.mutation import corpus
        for source in (corpus.BUSMOUSE_C, corpus.BUSMOUSE_CDEVIL,
                       corpus.IDE_C, corpus.IDE_CDEVIL, corpus.NE2000_C,
                       corpus.NE2000_CDEVIL):
            assert _c_outcome(tokenize_c, source) == \
                _c_outcome(oracle_minic_lexer.tokenize_c, source)


class TestAsciiOnly:
    """Identifier and digit classes are ASCII (LANGUAGE.md §1; C89)."""

    @pytest.mark.parametrize("char", ["²", "٣", "é", "ℵ"])
    def test_devil_rejects_non_ascii(self, char):
        with pytest.raises(DevilLexError) as caught:
            tokenize(f"x {char}")
        assert caught.value.message == f"unexpected character {char!r}"
        assert (caught.value.location.line,
                caught.value.location.column) == (1, 3)

    @pytest.mark.parametrize("char", ["²", "٣", "é", "ℵ"])
    def test_c_rejects_non_ascii(self, char):
        with pytest.raises(CLexError,
                           match=f"line 2: stray character {char!r}"):
            tokenize_c(f"x =\n{char};")


class TestFinalZero:
    @pytest.mark.parametrize("source", ["0", "x = 0", "a\n0"])
    def test_source_ending_in_zero(self, source):
        tokens = tokenize(source)
        assert (tokens[-2].kind.name, tokens[-2].value) == ("INT", 0)
        assert tokens[-1].kind.name == "EOF"
