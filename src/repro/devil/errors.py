"""Diagnostics for the Devil toolchain.

Every stage of the pipeline (lexing, parsing, static checking, code
generation, and the generated-stub runtime) reports problems through the
exception hierarchy defined here.  Errors carry a source location so that
a specification author gets ``file:line:column`` style messages, exactly
like the compiler described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, slots=True)
class SourceLocation:
    """A position inside a Devil source text.

    ``line`` and ``column`` are 1-based, matching conventional compiler
    diagnostics.  ``filename`` defaults to ``<devil>`` for specifications
    compiled from strings.
    """

    line: int = 1
    column: int = 1
    filename: str = "<devil>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used when no better position is available.
UNKNOWN_LOCATION = SourceLocation(0, 0, "<unknown>")


class DevilError(Exception):
    """Base class of every error raised by the Devil toolchain."""

    def __init__(self, message: str, location: SourceLocation = UNKNOWN_LOCATION):
        self.message = message
        self.location = location
        super().__init__(f"{location}: {message}")


class DevilLexError(DevilError):
    """Raised when the source text cannot be tokenized."""


class DevilParseError(DevilError):
    """Raised when the token stream does not form a valid specification."""


class DevilCheckError(DevilError):
    """Raised when static verification rejects a specification.

    The static rules implemented are the ones of section 3.1 of the
    paper: strong typing, no omission, no double definition, and no
    overlapping definitions (plus behaviour-qualifier consistency).
    """


class DevilCodegenError(DevilError):
    """Raised when a checked specification cannot be lowered to stubs."""


class DevilRuntimeError(DevilError):
    """Raised by generated stubs when a dynamic (debug-mode) check fails.

    This corresponds to the optional run-time checks of section 3.2:
    out-of-range writes, invalid enumerated values read back from the
    device, and misuse of trigger/volatile access protocols.
    """


@dataclass
class Diagnostic:
    """One checker finding; ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    message: str
    location: SourceLocation = UNKNOWN_LOCATION
    rule: str = ""

    def __str__(self) -> str:
        tag = f" [{self.rule}]" if self.rule else ""
        return f"{self.location}: {self.severity}: {self.message}{tag}"


@dataclass
class DiagnosticSink:
    """Accumulates checker findings so that one run reports *all* problems.

    The paper's checker validates a whole specification; stopping at the
    first inconsistency would make re-engineering drivers painful, so the
    checker gathers every finding and raises once at the end.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, location: SourceLocation = UNKNOWN_LOCATION,
              rule: str = "") -> None:
        self.diagnostics.append(Diagnostic("error", message, location, rule))

    def warning(self, message: str, location: SourceLocation = UNKNOWN_LOCATION,
                rule: str = "") -> None:
        self.diagnostics.append(Diagnostic("warning", message, location, rule))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def raise_if_errors(self) -> None:
        """Raise a :class:`DevilCheckError` summarising all errors, if any."""
        errors = self.errors
        if not errors:
            return
        summary = "\n".join(str(d) for d in errors)
        raise DevilCheckError(
            f"{len(errors)} error(s) in specification:\n{summary}",
            errors[0].location,
        )


class FirstErrorSink(DiagnosticSink):
    """A sink that stops the check at its first error.

    A verdict (does the specification check?) needs only one error, so
    a mutation classifier checks with this sink: :meth:`error` records
    the finding and raises :class:`DevilCheckError` with its message
    and location.  Up to that point the check runs exactly as with a
    :class:`DiagnosticSink`, so it accepts and rejects the same
    specifications, and its first error is a full check's first error.
    """

    def error(self, message: str, location: SourceLocation = UNKNOWN_LOCATION,
              rule: str = "") -> None:
        super().error(message, location, rule)
        raise DevilCheckError(message, location)
