"""Tokenizer for the C subset used by the mutation analysis.

The paper's Table 1 asks, for every single-character mutation of the
hardware operating code, "would the C compiler reject this?".  To
answer that offline we model the relevant front-end of a C compiler:
this lexer covers the token classes that appear in driver code —
identifiers, integer literals (decimal/octal/hex), character and
string literals, the full C operator set, and preprocessor directives
(which are delivered as single DIRECTIVE tokens, one per line).

One compiled master regex recognises every lexeme; :func:`splice_c`
re-lexes only the neighbourhood of a one-region edit and reuses the
rest of an existing token list (the mutation campaign's fast path).
"""

from __future__ import annotations

import bisect
import enum
import re
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence


class CTokenKind(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    CHAR = "char literal"
    STRING = "string literal"
    OPERATOR = "operator"
    PUNCT = "punctuation"
    DIRECTIVE = "preprocessor directive"
    EOF = "end of input"


#: C keywords recognised by the subset (delivered as IDENT tokens but
#: never treated as user symbols).
C_KEYWORDS = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default",
    "do", "double", "else", "enum", "extern", "float", "for", "goto",
    "if", "inline", "int", "long", "register", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef",
    "union", "unsigned", "void", "volatile", "while",
})

# Operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
]
_PUNCTUATION = ["(", ")", "[", "]", "{", "}", ",", ";"]


class CLexError(Exception):
    """The text does not form valid C tokens."""


class CToken(NamedTuple):
    kind: CTokenKind
    text: str
    offset: int       # character offset in the source
    #: Line of the token's start; for a directive, of its last line.
    #: Newlines inside character and string literals are not counted.
    line: int

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


# Alternatives are tried in order at each position; every position
# matches one of them (``other`` takes any character), so the matches
# tile the source.  Character classes are ASCII-only, as in the C89
# compilers the checker models.
_LEXEME = re.compile(r"""
    (?P<space> [ \t\r]+ )
  | (?P<newline> \n )
  | (?P<comment> //[^\n]* | /\*.*?\*/ )
  | (?P<open_comment> /\* )
  | (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<number> (?:[0-9]|\.[0-9])[0-9A-Za-z._]* )
  | (?P<operator> """ + "|".join(map(re.escape, _OPERATORS)) + r""" )
  | (?P<punct> [()\[\]{},;] )
  | (?P<directive> \#(?:\\\n|[^\n])* )
  | (?P<char> '(?:[^'\\]|\\.)*' )
  | (?P<string> "(?:[^"\\]|\\.)*" )
  | (?P<other> . )
""", re.VERBOSE | re.DOTALL)

_GROUP = _LEXEME.groupindex
_SPACE, _NEWLINE, _COMMENT, _OPEN_COMMENT = (
    _GROUP["space"], _GROUP["newline"], _GROUP["comment"],
    _GROUP["open_comment"])
_IDENT, _NUMBER, _OPERATOR, _PUNCT = (
    _GROUP["ident"], _GROUP["number"], _GROUP["operator"], _GROUP["punct"])
_DIRECTIVE, _CHAR, _STRING = (
    _GROUP["directive"], _GROUP["char"], _GROUP["string"])

#: Token kind of each group that yields a token as matched.
_PLAIN = {_IDENT: CTokenKind.IDENT, _OPERATOR: CTokenKind.OPERATOR,
          _PUNCT: CTokenKind.PUNCT, _STRING: CTokenKind.STRING}


def _scan(source: str, pos: int = 0, line: int = 1) -> Iterator[CToken]:
    """Yield the tokens of ``source`` from ``pos``, ending with ``EOF``.

    ``pos`` must be where a lexeme (or trivia) may begin, on ``line``.
    """
    make = CToken
    plain = _PLAIN
    for match in _LEXEME.finditer(source, pos):
        group = match.lastindex
        if group == _SPACE:
            continue
        if group == _NEWLINE:
            line += 1
            continue
        start = match.start()
        kind = plain.get(group)
        if kind is not None:
            yield make(kind, match.group(), start, line)
        elif group == _NUMBER:
            text = match.group()
            _validate_number(text, line)
            yield make(CTokenKind.NUMBER, text, start, line)
        elif group == _COMMENT:
            line += source.count("\n", start, match.end())
        elif group == _DIRECTIVE:
            text = match.group()
            # A directive runs to the end of line, honouring \ splices.
            line += text.count("\\\n")
            yield make(CTokenKind.DIRECTIVE, text, start, line)
        elif group == _CHAR:
            text = match.group()
            if len(text) < 3:
                raise CLexError(f"line {line}: empty char literal")
            yield make(CTokenKind.CHAR, text, start, line)
        elif group == _OPEN_COMMENT:
            raise CLexError(f"line {line}: unterminated comment")
        else:
            char = match.group()
            if char == "'":
                raise CLexError(f"line {line}: unterminated char literal")
            if char == '"':
                raise CLexError(f"line {line}: unterminated string")
            raise CLexError(f"line {line}: stray character {char!r}")
    yield make(CTokenKind.EOF, "", len(source), line)


def tokenize_c(source: str) -> list[CToken]:
    """Tokenize ``source``; raises :class:`CLexError` on bad input."""
    return list(_scan(source))


def _validate_number(text: str, line: int) -> None:
    """Reject ill-formed numeric literals the way a C lexer would."""
    body = text
    # Strip integer suffixes.
    while body and body[-1] in "uUlL":
        body = body[:-1]
    if not body:
        raise CLexError(f"line {line}: bad numeric literal {text!r}")
    try:
        if body.lower().startswith("0x"):
            if len(body) == 2:
                raise ValueError
            int(body, 16)
        elif body.startswith("0") and len(body) > 1 and "." not in body:
            int(body, 8)
        elif "." in body or "e" in body.lower():
            float(body)
        else:
            int(body, 10)
    except ValueError:
        raise CLexError(
            f"line {line}: bad numeric literal {text!r}") from None


def number_value(text: str) -> int | float:
    """Decode a validated C numeric literal."""
    body = text
    while body and body[-1] in "uUlL":
        body = body[:-1]
    if body.lower().startswith("0x"):
        return int(body, 16)
    if body.startswith("0") and len(body) > 1 and "." not in body:
        return int(body, 8)
    if "." in body or "e" in body.lower():
        return float(body)
    return int(body, 10)


_offset_of = attrgetter("offset")


def _start_line(token: CToken) -> int:
    """The line the scanner was on when ``token`` began."""
    if token.kind is CTokenKind.DIRECTIVE:
        return token.line - token.text.count("\\\n")
    return token.line


def splice_c(tokens: Sequence[CToken], source: str, offset: int,
             removed: int, inserted: int
             ) -> tuple[list[CToken], int, int]:
    """The tokens of ``source``, re-lexing only around one edit.

    ``tokens`` is the complete token list of an earlier text; ``source``
    is that text with ``removed`` characters at ``offset`` replaced by
    ``inserted`` new ones.  The list equals ``tokenize_c(source)`` (or
    the same :class:`CLexError` is raised).  Scanning starts at the
    token before the edit and stops at the first token past the edit
    that starts, on the same line, where an old token started (shifted
    by the edit's length change): from there on the two texts are
    identical, so the old tokens are reused with shifted offsets.

    Returns ``(new, first, reuse)`` as :func:`repro.devil.lexer.splice`
    does: ``new[:first]`` is ``tokens[:first]``, ``new[first:reuse]``
    was re-lexed, and ``new[reuse:]`` is the last ``len(new) - reuse``
    old tokens with shifted offsets (``reuse == len(new)`` when the
    scan reached the end).
    """
    delta = inserted - removed
    index = bisect.bisect_right(tokens, offset, key=_offset_of) - 2
    # Tokens look one character past their end, except that '.' looks
    # two ('..' then '.' is '...'): step back past such a '.'.
    while index > 0 and tokens[index - 1].text == "." and \
            tokens[index - 1].offset + 3 > offset:
        index -= 1
    if index < 0:
        index, scanner = 0, _scan(source)
    else:
        first = tokens[index]
        scanner = _scan(source, first.offset, _start_line(first))
    result = list(tokens[:index])
    old = index
    edit_end = offset + removed
    for token in scanner:
        start = token.offset - delta
        if start >= edit_end:
            while tokens[old].offset < start:
                old += 1
            then = tokens[old]
            if then.offset == start and then.line == token.line:
                reuse = len(result)
                if not delta:
                    result.extend(tokens[old:])
                else:
                    # tuple.__new__ skips CToken's Python-level
                    # constructor: this runs for every reused token.
                    new = tuple.__new__
                    result.extend([
                        new(CToken, (kind, text, token_offset + delta, line))
                        for kind, text, token_offset, line in tokens[old:]])
                return result, index, reuse
        result.append(token)
    return result, index, len(result)
