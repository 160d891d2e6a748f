"""Tokenizer for the Devil specification language.

The concrete syntax follows the figures of the OSDI 2000 paper: C-style
comments, single-quoted bit patterns such as ``'1001000.'``, the ``@``
port constructor, ``#`` register concatenation, ``..`` ranges, and the
enumerated-type arrows ``=>``, ``<=`` and ``<=>``.

One compiled master regex recognises every lexeme; :func:`splice`
re-lexes only the neighbourhood of a one-region edit and reuses the
rest of an existing token list (the mutation campaign's fast path).
"""

from __future__ import annotations

import bisect
import enum
import re
from operator import attrgetter
from typing import Iterator, NamedTuple, Sequence

from .errors import DevilLexError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of the Devil language."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    BITPATTERN = "bit pattern"

    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    AT = "@"
    COLON = ":"
    SEMICOLON = ";"
    COMMA = ","
    HASH = "#"
    STAR = "*"
    DOTDOT = ".."
    PLUS = "+"
    ASSIGN = "="
    EQ = "=="
    ARROW_WRITE = "=>"
    ARROW_READ = "<="
    ARROW_BOTH = "<=>"

    EOF = "end of input"


#: Reserved words.  ``int``, ``bool``, ``signed``, ``bit`` and ``port`` are
#: keywords because they begin type expressions; the behaviour qualifiers
#: and action introducers are keywords because they follow commas where an
#: identifier would be ambiguous.
KEYWORDS = frozenset({
    "device", "register", "variable", "structure", "type", "private",
    "read", "write", "mask", "pre", "post", "set",
    "trigger", "volatile", "block", "except", "for",
    "serialized", "as", "if",
    "int", "signed", "bool", "bit", "port",
    "true", "false",
})

#: Characters allowed inside a quoted bit pattern.  ``.`` marks a bit
#: defined by a device variable, ``*`` and ``-`` mark irrelevant bits, and
#: ``0``/``1`` mark bits forced to a fixed value when written.  (The
#: paper's prose and its figures swap the roles of ``*`` and ``.``; we
#: follow the figures, which are self-consistent across all five example
#: devices — see ``repro.devil.mask``.)
BITPATTERN_CHARS = frozenset("01.*-")

#: Operator and bracket spellings: every kind named by its own text.
_PUNCTUATION = {kind.value: kind for kind in TokenKind
                if kind not in (TokenKind.IDENT, TokenKind.KEYWORD,
                                TokenKind.INT, TokenKind.BITPATTERN,
                                TokenKind.EOF)}


class Token(NamedTuple):
    """One lexical unit: kind, source text, location and start offset.

    ``offset`` is the character offset of the lexeme's first character
    (the opening quote of a bit pattern, whose ``text`` excludes the
    quotes); ``value`` is the decoded value of ``INT`` tokens.
    """

    kind: TokenKind
    text: str
    location: SourceLocation
    offset: int
    value: int | None = None

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:
        if self.kind in (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT):
            return f"{self.kind.value} '{self.text}'"
        if self.kind is TokenKind.BITPATTERN:
            return f"bit pattern '{self.text}'"
        return f"'{self.kind.value}'"


# Alternatives are tried in order at each position; every position
# matches one of them (``other`` takes any character), so the matches
# tile the source.  Character classes are ASCII-only, as LANGUAGE.md §1
# defines identifiers and integers.
_LEXEME = re.compile(r"""
    (?P<space> [ \t\r\n]+ )
  | (?P<comment> //[^\n]* | /\*.*?\*/ )
  | (?P<open_comment> /\* )
  | (?P<word> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<punct> <=> | \.\. | == | => | <= | [{}()\[\]@:;,\#*+=] )
  | (?P<hex> 0[xX][0-9A-Za-z]* )
  | (?P<binary> 0[bB][0-9A-Za-z]* )
  | (?P<decimal> [0-9]+ ) (?P<digit_word> [A-Za-z_] )?
  | '(?P<bits> [01.*\-]* )'
  | (?P<open_bits> '[01.*\-]* )
  | (?P<other> . )
""", re.VERBOSE | re.DOTALL)

_GROUP = _LEXEME.groupindex
_SPACE, _COMMENT, _OPEN_COMMENT = (
    _GROUP["space"], _GROUP["comment"], _GROUP["open_comment"])
_WORD, _PUNCT, _HEX, _BINARY = (
    _GROUP["word"], _GROUP["punct"], _GROUP["hex"], _GROUP["binary"])
_DECIMAL, _DIGIT_WORD = _GROUP["decimal"], _GROUP["digit_word"]
_BITS, _OPEN_BITS = _GROUP["bits"], _GROUP["open_bits"]


def _scan(source: str, filename: str, pos: int = 0, line: int = 1,
          line_start: int = 0) -> Iterator[Token]:
    """Yield the tokens of ``source`` from ``pos``, ending with ``EOF``.

    ``pos`` must be where a lexeme (or trivia) may begin; ``line`` is
    its line and ``line_start`` the offset at which that line begins.
    """
    make = Token
    for match in _LEXEME.finditer(source, pos):
        group = match.lastindex
        start = match.start()
        if group == _SPACE or group == _COMMENT:
            end = match.end()
            newline = source.rfind("\n", start, end)
            if newline >= 0:
                line += source.count("\n", start, end)
                line_start = newline + 1
            continue
        location = SourceLocation(line, start - line_start + 1, filename)
        text = match.group()
        if group == _WORD:
            yield make(TokenKind.KEYWORD if text in KEYWORDS
                       else TokenKind.IDENT, text, location, start)
        elif group == _PUNCT:
            yield make(_PUNCTUATION[text], text, location, start)
        elif group == _DECIMAL:
            yield make(TokenKind.INT, text, location, start, int(text))
        elif group == _BITS:
            if len(text) == 2:
                raise DevilLexError("empty bit pattern", location)
            yield make(TokenKind.BITPATTERN, text[1:-1], location, start)
        elif group == _HEX or group == _BINARY:
            if group == _HEX and len(text) == 2:
                raise DevilLexError("incomplete hexadecimal literal",
                                    location)
            base, name = (16, "hexadecimal") if group == _HEX \
                else (2, "binary")
            try:
                value = int(text, base)
            except ValueError:
                raise DevilLexError(f"invalid {name} literal {text!r}",
                                    location) from None
            yield make(TokenKind.INT, text, location, start, value)
        elif group == _DIGIT_WORD:
            raise DevilLexError(
                "identifier may not start with a digit near "
                f"{match.group(_DECIMAL)!r}", location)
        elif group == _OPEN_BITS:
            end = match.end()
            if end == len(source) or source[end] == "\n":
                raise DevilLexError("unterminated bit pattern", location)
            raise DevilLexError(
                f"invalid character {source[end]!r} in bit pattern "
                f"(allowed: 0 1 . * -)",
                SourceLocation(line, end - line_start + 1, filename))
        elif group == _OPEN_COMMENT:
            raise DevilLexError("unterminated block comment", location)
        else:
            raise DevilLexError(f"unexpected character {text!r}", location)
    end = len(source)
    yield make(TokenKind.EOF, "",
               SourceLocation(line, end - line_start + 1, filename), end)


class Lexer:
    """Scanner producing :class:`Token` objects from one source text.

    The lexical grammar is context-free between tokens: the only
    multi-character construct with inner structure is the single-quoted
    bit pattern, which is recognised as one token.
    """

    def __init__(self, source: str, filename: str = "<devil>"):
        self._source = source
        self._filename = filename

    def tokens(self) -> list[Token]:
        """Every token, ending with a single ``EOF`` token."""
        return list(_scan(self._source, self._filename))


def tokenize(source: str, filename: str = "<devil>") -> list[Token]:
    """Tokenize ``source`` completely; convenience wrapper over Lexer."""
    return Lexer(source, filename).tokens()


_offset_of = attrgetter("offset")


def splice(tokens: Sequence[Token], source: str, offset: int,
           removed: int, inserted: int) -> tuple[list[Token], int, int]:
    """The tokens of ``source``, re-lexing only around one edit.

    ``tokens`` is the complete token list of an earlier text; ``source``
    is that text with ``removed`` characters at ``offset`` replaced by
    ``inserted`` new ones.  The list equals ``tokenize(source)`` (or
    the same :class:`DevilLexError` is raised).  Scanning starts at the
    token before the edit and stops at the first token past the edit
    that starts, on the same line, where an old token started (shifted
    by the edit's length change): from there on the two texts are
    identical, so the old tokens are reused, moved along the text.

    Returns ``(new, first, reuse)``: ``new[:first]`` is
    ``tokens[:first]``, ``new[first:reuse]`` was re-lexed, and
    ``new[reuse:]`` is ``tokens[reuse - len(new) + len(tokens):]``
    moved along the text (``reuse == len(new)`` when the scan reached
    the end).  Only tokens on the line of ``new[reuse]`` changed column.
    """
    delta = inserted - removed
    # The token before the edit may merge with it (``a#b`` -> ``ab``);
    # no token looks more than one character past its end, so earlier
    # tokens cannot change.
    index = bisect.bisect_right(tokens, offset, key=_offset_of) - 2
    if index < 0:
        index, scanner = 0, _scan(source, tokens[-1].location.filename)
    else:
        first = tokens[index]
        location = first.location
        scanner = _scan(source, location.filename, first.offset,
                        location.line, first.offset - location.column + 1)
    result = list(tokens[:index])
    old = index
    edit_end = offset + removed
    for token in scanner:
        start = token.offset - delta
        if start >= edit_end:
            while tokens[old].offset < start:
                old += 1
            then = tokens[old]
            if then.offset == start and \
                    then.location.line == token.location.line:
                reuse = len(result)
                result.extend(_moved(
                    tokens[old:], delta,
                    token.location.column - then.location.column))
                return result, index, reuse
        result.append(token)
    return result, index, len(result)


def _moved(tokens: Sequence[Token], delta: int,
           column_shift: int) -> Sequence[Token]:
    """``tokens`` moved ``delta`` characters along the text, and
    ``column_shift`` columns on the line of the first of them."""
    if not (delta or column_shift):
        return tokens
    count = 0
    if column_shift:
        line = tokens[0].location.line
        while count < len(tokens) and tokens[count].location.line == line:
            count += 1
    # tuple.__new__ skips Token's Python-level constructor: this runs for
    # every reused token of every mutant.
    new = tuple.__new__
    moved = [new(Token, (kind, text,
                         SourceLocation(location.line,
                                        location.column + column_shift,
                                        location.filename),
                         offset + delta, value))
             for kind, text, location, offset, value in tokens[:count]]
    moved += [new(Token, (kind, text, location, offset + delta, value))
              for kind, text, location, offset, value in tokens[count:]]
    return moved
