"""Test oracle: the character-at-a-time Devil scanner.

A frozen copy of the hand-written scanner that ``repro.devil.lexer``
replaced with one compiled regex.  ``tests/test_lexer_oracle.py``
checks that the regex lexer produces the same tokens, or the same
error, as this scanner on generated inputs.  It keeps its quirks on
purpose, including the two the regex lexer fixes: non-ASCII digits and
letters are accepted (``str.isdigit``/``isalpha``), and a final ``0``
is read as an incomplete ``0x`` literal (``"" in "xX"`` is true).
Do not fix them here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.devil.errors import DevilLexError, SourceLocation


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

_PUNCTUATION_3 = {"<=>": TokenKind.ARROW_BOTH}
_PUNCTUATION_2 = {
    "..": TokenKind.DOTDOT,
    "==": TokenKind.EQ,
    "=>": TokenKind.ARROW_WRITE,
    "<=": TokenKind.ARROW_READ,
}
_PUNCTUATION_1 = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "@": TokenKind.AT,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "#": TokenKind.HASH,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "=": TokenKind.ASSIGN,
}


@dataclass(frozen=True)
class Token:
    """One lexical unit, with its source text and location."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: int | None = None  # decoded value for INT tokens

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:
        if self.kind in (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT):
            return f"{self.kind.value} '{self.text}'"
        if self.kind is TokenKind.BITPATTERN:
            return f"bit pattern '{self.text}'"
        return f"'{self.kind.value}'"


class Lexer:
    """Hand-written scanner producing :class:`Token` objects.

    The scanner is deliberately simple and fully deterministic: the only
    context sensitivity in Devil's lexical grammar is the single-quoted
    bit pattern, which is recognised as one token.
    """

    def __init__(self, source: str, filename: str = "<devil>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column, self._filename)

    def _peek(self, ahead: int = 0) -> str:
        index = self._pos + ahead
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while self._pos < len(self._source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise DevilLexError("unterminated block comment", start)
            else:
                return

    def _lex_bit_pattern(self) -> Token:
        start = self._location()
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            char = self._peek()
            if char == "'":
                self._advance()
                break
            if char == "" or char == "\n":
                raise DevilLexError("unterminated bit pattern", start)
            if char not in BITPATTERN_CHARS:
                raise DevilLexError(
                    f"invalid character {char!r} in bit pattern "
                    f"(allowed: 0 1 . * -)", self._location())
            chars.append(char)
            self._advance()
        if not chars:
            raise DevilLexError("empty bit pattern", start)
        return Token(TokenKind.BITPATTERN, "".join(chars), start)

    def _lex_number(self) -> Token:
        start = self._location()
        begin = self._pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            if not self._peek().isalnum():
                raise DevilLexError("incomplete hexadecimal literal", start)
            while self._peek().isalnum():
                self._advance()
            text = self._source[begin:self._pos]
            try:
                value = int(text, 16)
            except ValueError:
                raise DevilLexError(f"invalid hexadecimal literal {text!r}",
                                    start) from None
        elif self._peek() == "0" and self._peek(1) in "bB":
            self._advance(2)
            while self._peek().isalnum():
                self._advance()
            text = self._source[begin:self._pos]
            try:
                value = int(text, 2)
            except ValueError:
                raise DevilLexError(f"invalid binary literal {text!r}",
                                    start) from None
        else:
            while self._peek().isdigit():
                self._advance()
            text = self._source[begin:self._pos]
            value = int(text, 10)
            if self._peek().isalpha() or self._peek() == "_":
                raise DevilLexError(
                    f"identifier may not start with a digit near {text!r}",
                    start)
        return Token(TokenKind.INT, text, start, value=value)

    def _lex_word(self) -> Token:
        start = self._location()
        begin = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[begin:self._pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, start)

    def next_token(self) -> Token:
        """Return the next token (``EOF`` forever once input is spent)."""
        self._skip_trivia()
        start = self._location()
        char = self._peek()
        if char == "":
            return Token(TokenKind.EOF, "", start)
        if char == "'":
            return self._lex_bit_pattern()
        if char.isdigit():
            return self._lex_number()
        if char.isalpha() or char == "_":
            return self._lex_word()

        three = self._source[self._pos:self._pos + 3]
        if three in _PUNCTUATION_3:
            self._advance(3)
            return Token(_PUNCTUATION_3[three], three, start)
        two = self._source[self._pos:self._pos + 2]
        if two in _PUNCTUATION_2:
            self._advance(2)
            return Token(_PUNCTUATION_2[two], two, start)
        if char in _PUNCTUATION_1:
            self._advance()
            return Token(_PUNCTUATION_1[char], char, start)
        raise DevilLexError(f"unexpected character {char!r}", start)

    def tokens(self) -> Iterator[Token]:
        """Yield every token, ending with a single ``EOF`` token."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


def tokenize(source: str, filename: str = "<devil>") -> list[Token]:
    """Tokenize ``source`` completely; convenience wrapper over Lexer."""
    return list(Lexer(source, filename).tokens())
