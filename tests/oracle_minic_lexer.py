"""Test oracle: the character-at-a-time mini-C scanner.

A frozen copy of the hand-written scanner that ``repro.minic.lexer``
replaced with one compiled regex.  ``tests/test_lexer_oracle.py``
checks that the regex lexer produces the same tokens, or the same
error, as this scanner on generated inputs.  It keeps its quirks on
purpose, including the one the regex lexer fixes: non-ASCII digits and
letters are accepted (``str.isdigit``/``isalpha``/``isalnum``).  Do not
fix them here.  It raises the real :class:`repro.minic.lexer.CLexError`
so that error classes compare equal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.minic.lexer import CLexError


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


@dataclass(frozen=True)
class CToken:
    kind: CTokenKind
    text: str
    offset: int       # character offset in the source
    line: int

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


def tokenize_c(source: str) -> list[CToken]:
    """Tokenize ``source``; raises :class:`CLexError` on bad input."""
    tokens: list[CToken] = []
    position = 0
    line = 1
    length = len(source)

    def peek(ahead: int = 0) -> str:
        index = position + ahead
        return source[index] if index < length else ""

    while position < length:
        char = source[position]
        if char == "\n":
            line += 1
            position += 1
            continue
        if char in " \t\r":
            position += 1
            continue
        if char == "/" and peek(1) == "/":
            while position < length and source[position] != "\n":
                position += 1
            continue
        if char == "/" and peek(1) == "*":
            end = source.find("*/", position + 2)
            if end < 0:
                raise CLexError(f"line {line}: unterminated comment")
            line += source.count("\n", position, end)
            position = end + 2
            continue
        if char == "#":
            start = position
            # A directive runs to the end of line, honouring \ splices.
            while position < length and source[position] != "\n":
                if source[position] == "\\" and peek(1) == "\n":
                    position += 2
                    line += 1
                    continue
                position += 1
            tokens.append(CToken(CTokenKind.DIRECTIVE,
                                 source[start:position], start, line))
            continue
        if char.isdigit() or (char == "." and peek(1).isdigit()):
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] in "._"):
                position += 1
            text = source[start:position]
            _validate_number(text, line)
            tokens.append(CToken(CTokenKind.NUMBER, text, start, line))
            continue
        if char.isalpha() or char == "_":
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] == "_"):
                position += 1
            tokens.append(CToken(CTokenKind.IDENT, source[start:position],
                                 start, line))
            continue
        if char == "'":
            start = position
            position += 1
            while position < length and source[position] != "'":
                if source[position] == "\\":
                    position += 1
                position += 1
            if position >= length:
                raise CLexError(f"line {line}: unterminated char literal")
            position += 1
            text = source[start:position]
            if len(text) < 3:
                raise CLexError(f"line {line}: empty char literal")
            tokens.append(CToken(CTokenKind.CHAR, text, start, line))
            continue
        if char == '"':
            start = position
            position += 1
            while position < length and source[position] != '"':
                if source[position] == "\\":
                    position += 1
                position += 1
            if position >= length:
                raise CLexError(f"line {line}: unterminated string")
            position += 1
            tokens.append(CToken(CTokenKind.STRING,
                                 source[start:position], start, line))
            continue
        for operator in _OPERATORS:
            if source.startswith(operator, position):
                tokens.append(CToken(CTokenKind.OPERATOR, operator,
                                     position, line))
                position += len(operator)
                break
        else:
            if char in _PUNCTUATION:
                tokens.append(CToken(CTokenKind.PUNCT, char, position,
                                     line))
                position += 1
            else:
                raise CLexError(f"line {line}: stray character {char!r}")
    tokens.append(CToken(CTokenKind.EOF, "", length, line))
    return tokens


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
