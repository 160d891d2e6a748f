"""Language targets: how each language tokenizes, validates and detects.

A :class:`LanguageTarget` packages everything the analysis engine needs
for one program in one language:

* the source text and its mutation-eligible character regions,
* a site extractor (which tokens are mutable: identifiers, numeric
  literals, operators, and — for Devil — bit patterns; keywords and
  bracketing punctuation are structural, not typo targets),
* a token normaliser used to discard mutants that cannot change the
  program's meaning (``3`` → ``03``, mask ``-`` ↔ ``*``), per the
  paper's rule that a mutant must "actually modify the semantics",
* a classifier deciding each surviving mutant's fate:

  - **invalid** — does not parse; excluded (the paper's rules only
    admit syntactically correct mutants);
  - **detected** — the compiler/checker rejects it, *or* it changes
    the program's exported interface (a renamed stub, enum constant or
    driver entry point breaks the surrounding build at its next
    compile/link step — both worlds get credit for this the same way);
  - **undetected** — compiles clean with the same interface: the
    silent failure Table 1 counts.

Three constructors cover Table 1's columns: :func:`c_target` (minic
playing gcc), :func:`devil_target` (this repository's checker) and
:func:`cdevil_target` (minic with the generated stub prototypes and
enum constants pre-declared).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..devil.checker import check
from ..devil.compiler import compile_spec, outline_spec
from ..devil.errors import (
    DevilCheckError,
    DevilLexError,
    DevilParseError,
    FirstErrorSink,
)
from ..devil.lexer import Lexer as DevilLexer
from ..devil.lexer import Token as DevilToken
from ..devil.lexer import TokenKind as DevilTokenKind
from ..devil.lexer import splice
from ..devil.model import ResolvedDevice
from ..devil.parser import Outline
from ..devil.stubs import BLOCK_KINDS, stub_table
from ..devil.types import EnumType
from ..minic import (
    CheckResult,
    CLexError,
    CParseError,
    CTokenKind,
    check_c,
    kernel_externals,
    tokenize_c,
)
from ..minic.lexer import C_KEYWORDS, CToken, number_value, splice_c
from .corpus import mutation_regions
from .rules import Mutant, MutationSite

INVALID = "invalid"
DETECTED = "detected"
UNDETECTED = "undetected"

#: Devil operator tokens eligible for mutation ("operators" in the
#: paper's rule set; braces/parens/semicolons are structural).
_DEVIL_OPERATOR_KINDS = {
    DevilTokenKind.AT, DevilTokenKind.HASH, DevilTokenKind.DOTDOT,
    DevilTokenKind.ASSIGN, DevilTokenKind.EQ, DevilTokenKind.STAR,
    DevilTokenKind.ARROW_WRITE, DevilTokenKind.ARROW_READ,
    DevilTokenKind.ARROW_BOTH,
}

#: C operator texts eligible for mutation.
_C_MUTABLE_OPERATORS = {
    "+", "-", "*", "/", "%", "<<", ">>", "<", ">", "<=", ">=", "==",
    "!=", "&", "|", "^", "~", "!", "&&", "||", "=", "+=", "-=", "&=",
    "|=", "^=", "<<=", ">>=", "->", "++", "--",
}


@dataclass
class LanguageTarget:
    """One program in one language, ready for mutation analysis.

    ``classify(text, mutant=None)`` returns INVALID, DETECTED or
    UNDETECTED for ``text``.  When ``mutant`` is given, ``text`` must be
    ``mutant.apply(source)``: the classifier then splices ``tokens``
    (the baseline lex of ``source``, built once and never mutated)
    instead of lexing the whole text again, and re-parses (Devil) or
    re-checks (C, CDevil) only around the splice, resuming from the
    baseline parse or check the classifier keeps.
    """

    name: str
    language: str                      # "C", "Devil" or "CDevil"
    source: str
    tokens: tuple
    #: The full parse (Devil) or check (C, CDevil, with checkpoints)
    #: of ``tokens`` that mutants resume from; never mutated.
    baseline: Outline | CheckResult
    sites: list[MutationSite]
    classify: Callable[..., str]
    lines_of_code: int = 0

    def __post_init__(self) -> None:
        if not self.lines_of_code:
            self.lines_of_code = sum(
                1 for line in self.source.splitlines()
                if line.strip() and not line.strip().startswith("//")
                and not line.strip().startswith("/*"))

    @staticmethod
    def normalize_token(site: MutationSite, text: str) -> str:
        """Canonical form used to discard meaning-preserving mutants."""
        if site.kind == "number":
            try:
                return str(_token_number_value(text))
            except ValueError:
                return text
        if site.kind == "bitpattern":
            # '*' and '-' both mean "irrelevant"; a swap cannot change
            # the generated stubs.
            return text.replace("-", "*")
        return text


def _token_number_value(text: str) -> int | float:
    lowered = text.lower()
    if lowered.startswith("0b"):
        return int(lowered, 2)
    return number_value(text)


# ---------------------------------------------------------------------------
# C and CDevil targets
# ---------------------------------------------------------------------------


def _c_sites(source: str,
             tokens: Sequence[CToken]) -> list[MutationSite]:
    regions = mutation_regions(source) or [(0, len(source))]
    sites: list[MutationSite] = []

    def add(kind: str, text: str, offset: int, line: int) -> None:
        sites.append(MutationSite(kind, text, offset, line))

    def visit(token, base_offset: int, line: int) -> None:
        offset = base_offset + token.offset
        if token.kind is CTokenKind.IDENT and token.text not in C_KEYWORDS:
            add("ident", token.text, offset, line)
        elif token.kind is CTokenKind.NUMBER:
            add("number", token.text, offset, line)
        elif token.kind is CTokenKind.OPERATOR and \
                token.text in _C_MUTABLE_OPERATORS:
            add("operator", token.text, offset, line)

    for token in tokens:
        if not any(start <= token.offset < end for start, end in regions):
            continue
        if token.kind is CTokenKind.DIRECTIVE and \
                token.text.startswith("#define"):
            # The name and body of a #define are ordinary mutation
            # targets (the paper's macro constants, Figure 2a).
            body_start = len("#define")
            for inner in tokenize_c(token.text[body_start:]):
                if inner.kind is CTokenKind.EOF:
                    break
                visit(inner, token.offset + body_start, token.line)
            continue
        visit(token, 0, token.line)
    return sites


def _c_target(name: str, language: str, source: str,
              externals: dict[str, int | None], constants: set[str],
              warnings_detect: bool,
              ranges: dict[str, list[ArgumentRange]] | None = None
              ) -> LanguageTarget:
    tokens = tuple(tokenize_c(source))
    baseline = check_c(source, externals, constants, tokens=tokens)
    baseline_interface = frozenset(baseline.defined_functions)

    def classify(text: str, mutant: Mutant | None = None) -> str:
        try:
            if mutant is None:
                lexed = tokenize_c(text)
                result = check_c(text, externals, constants, tokens=lexed)
            else:
                lexed, first, reuse = splice_c(
                    tokens, text, mutant.site.offset,
                    len(mutant.site.text), len(mutant.mutated_token))
                result = check_c(text, externals, constants, tokens=lexed,
                                 baseline=baseline, span=(first, reuse))
        except (CLexError, CParseError):
            return INVALID
        if result.detected(warnings_detect):
            return DETECTED
        if frozenset(result.defined_functions) != baseline_interface:
            return DETECTED  # renamed entry point: caught at link time
        if ranges is not None and not _constant_args_ok(lexed, ranges):
            return DETECTED
        return UNDETECTED

    return LanguageTarget(name, language, source, tokens, baseline,
                          _c_sites(source, tokens), classify)


def c_target(name: str, source: str,
             externals: dict[str, int | None] | None = None,
             warnings_detect: bool = True) -> LanguageTarget:
    """A hand-written C driver fragment, checked the way gcc would."""
    resolved = externals if externals is not None else kernel_externals()
    return _c_target(name, "C", source, resolved, set(), warnings_detect)


def stub_externals(model: ResolvedDevice,
                   prefix: str) -> tuple[dict[str, int | None], set[str]]:
    """Prototypes and enum constants of the generated header.

    This is the compile-time environment a CDevil translation unit
    sees after ``#include "<device>.dil.h"`` under ``DEVIL_NO_REF``.
    """
    externals: dict[str, int | None] = {f"{prefix}_init": len(model.params)}
    for row in stub_table(model).rows:
        externals[f"{prefix}_{row.name}"] = \
            2 if row.kind in BLOCK_KINDS else len(row.params)
    constants = {f"{prefix.upper()}_{item.name}"
                 for variable in model.public_variables()
                 if isinstance(variable.type, EnumType)
                 for item in variable.type.items}
    return externals, constants


#: Legality of one constant stub argument: an inclusive interval, an
#: exact value set, or None (unchecked — enum arguments are symbols).
ArgumentRange = tuple[str, int, int] | frozenset[int] | None


def stub_argument_ranges(model: ResolvedDevice, prefix: str
                         ) -> dict[str, list[ArgumentRange]]:
    """Legal constant values per stub argument.

    §3.2 of the paper: "When writing to a variable, a check can be
    performed to verify that the written value falls within the range
    specified by the variable type.  If the value is constant, the
    check can generally be done at compile time."  This map drives that
    compile-time check for the CDevil analysis.
    """

    def legal_values(variable) -> ArgumentRange:
        from ..devil.types import BoolType, IntSetType, IntType
        var_type = variable.type
        if isinstance(var_type, BoolType):
            return frozenset({0, 1})
        if isinstance(var_type, IntSetType):
            return frozenset(var_type.values)
        if isinstance(var_type, IntType):
            return ("interval", var_type.minimum, var_type.maximum)
        return None  # enums take symbol arguments, not integers

    ranges: dict[str, list[ArgumentRange]] = {}
    for variable in model.variables.values():
        if variable.private:
            continue
        ranges[f"{prefix}_set_{variable.name}"] = [legal_values(variable)]
    for structure in model.structures.values():
        members = [model.variables[m] for m in structure.members]
        ranges[f"{prefix}_set_{structure.name}"] = \
            [legal_values(m) for m in members]
    return ranges


def _value_legal(value: int, legal: ArgumentRange) -> bool:
    if legal is None:
        return True
    if isinstance(legal, frozenset):
        return value in legal
    _, minimum, maximum = legal
    return minimum <= value <= maximum


def _constant_args_ok(tokens: Sequence[CToken],
                      ranges: dict[str, list[ArgumentRange]]) -> bool:
    """Compile-time range check of constant stub arguments.

    Scans ``tokens`` for calls of known set-stubs; any argument that is
    a single integer literal is validated against the variable's Devil
    type.
    """
    for index, token in enumerate(tokens):
        if token.kind is not CTokenKind.IDENT or token.text not in ranges:
            continue
        if index + 1 >= len(tokens) or tokens[index + 1].text != "(":
            continue
        arguments = _split_call_args(tokens, index + 1)
        if arguments is None:
            continue
        argument_ranges = ranges[token.text]
        for position, argument in enumerate(arguments):
            if position >= len(argument_ranges):
                break
            value = _constant_value(argument)
            if value is None:
                continue
            if not _value_legal(value, argument_ranges[position]):
                return False
    return True


def _split_call_args(tokens, open_index) -> list[list] | None:
    """Argument token lists of the call starting at ``(``."""
    depth = 0
    arguments: list[list] = [[]]
    for token in tokens[open_index:]:
        if token.text == "(":
            depth += 1
            if depth == 1:
                continue
        elif token.text == ")":
            depth -= 1
            if depth == 0:
                return arguments if any(arguments[0:1]) or \
                    len(arguments) > 1 else [[]]
        elif token.text == "," and depth == 1:
            arguments.append([])
            continue
        if depth >= 1:
            arguments[-1].append(token)
    return None


def _constant_value(argument_tokens) -> int | None:
    """The value of an argument that is a (possibly negated) literal."""
    if len(argument_tokens) == 1 and \
            argument_tokens[0].kind is CTokenKind.NUMBER:
        value = _token_number_value(argument_tokens[0].text)
        return value if isinstance(value, int) else None
    if len(argument_tokens) == 2 and argument_tokens[0].text == "-" and \
            argument_tokens[1].kind is CTokenKind.NUMBER:
        value = _token_number_value(argument_tokens[1].text)
        return -value if isinstance(value, int) else None
    return None


def cdevil_target(name: str, source: str,
                  specs: list[tuple[ResolvedDevice, str]],
                  warnings_detect: bool = True) -> LanguageTarget:
    """A stub-using C fragment (the paper's CDevil programs).

    ``specs`` lists (resolved device, stub prefix) pairs whose generated
    headers the fragment includes.  Detection combines the C compiler
    model with the generated interface's compile-time checks: constant
    arguments to set stubs are range-checked against the Devil types
    (§3.2).
    """
    externals = kernel_externals()
    constants: set[str] = set()
    ranges: dict[str, list[ArgumentRange]] = {}
    for model, prefix in specs:
        stub_funcs, stub_consts = stub_externals(model, prefix)
        externals.update(stub_funcs)
        constants.update(stub_consts)
        ranges.update(stub_argument_ranges(model, prefix))
    return _c_target(name, "CDevil", source, externals, constants,
                     warnings_detect, ranges)


# ---------------------------------------------------------------------------
# Devil target
# ---------------------------------------------------------------------------


def _devil_sites(tokens: Sequence[DevilToken]) -> list[MutationSite]:
    sites: list[MutationSite] = []
    for token in tokens:
        line = token.location.line
        if token.kind is DevilTokenKind.IDENT:
            sites.append(MutationSite("ident", token.text, token.offset,
                                      line))
        elif token.kind is DevilTokenKind.INT:
            sites.append(MutationSite("number", token.text, token.offset,
                                      line))
        elif token.kind is DevilTokenKind.BITPATTERN:
            # offset points at the opening quote; the pattern text
            # starts one character later.
            sites.append(MutationSite("bitpattern", token.text,
                                      token.offset + 1, line))
        elif token.kind in _DEVIL_OPERATOR_KINDS:
            sites.append(MutationSite("operator", token.text, token.offset,
                                      line))
    return sites


def devil_interface(model: ResolvedDevice,
                    prefix: str = "dev") -> frozenset[str]:
    """The exported stub surface a driver compiles against."""
    externals, constants = stub_externals(model, prefix)
    return frozenset(externals) | frozenset(constants) | \
        frozenset({f"device:{model.name}"})


def devil_target(name: str, source: str) -> LanguageTarget:
    """A Devil specification, checked by this repository's compiler.

    A verdict needs only to know whether the checker finds an error,
    so the classifier checks with a :class:`FirstErrorSink`, and a
    mutant resumes the baseline's parse and check (:func:`outline_spec`).
    """
    tokens = tuple(DevilLexer(source).tokens())
    baseline = outline_spec(source, tokens=tokens)
    baseline_interface = devil_interface(check(baseline.syntax))

    def classify(text: str, mutant: Mutant | None = None) -> str:
        try:
            if mutant is None:
                spec = compile_spec(text, sink=FirstErrorSink())
            else:
                lexed, first, reuse = splice(
                    tokens, text, mutant.site.offset,
                    len(mutant.site.text), len(mutant.mutated_token))
                spec = compile_spec(text, tokens=lexed, baseline=baseline,
                                    span=(first, reuse),
                                    sink=FirstErrorSink())
        except (DevilLexError, DevilParseError):
            return INVALID
        except DevilCheckError:
            return DETECTED
        if devil_interface(spec.model) != baseline_interface:
            # The generated stubs changed names: the driver using them
            # no longer compiles — caught at the CDevil build step.
            return DETECTED
        return UNDETECTED

    return LanguageTarget(name, "Devil", source, tokens, baseline,
                          _devil_sites(tokens), classify)
