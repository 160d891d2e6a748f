"""Pipeline driver: the public entry point of the Devil compiler.

Mirrors the paper's toolchain: source → parse → static verification →
backends.  :func:`compile_spec` runs the front end and returns a
:class:`CompiledSpec` from which callers can

* bind executable Python stubs to a simulated bus (:meth:`CompiledSpec.bind`),
* emit the C stub header (:meth:`CompiledSpec.emit_c`), or
* emit a standalone Python stub module (:meth:`CompiledSpec.emit_python`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..bus import Bus
from . import ast
from .checker import check, record_check
from .errors import Diagnostic, DiagnosticSink
from .lexer import Token
from .model import ResolvedDevice
from .parser import Outline, outline, parse
from .runtime import DeviceInstance


def resolve_strategy(strategy: str, composition: str = "cache",
                     shadow_cache: bool = False) -> str:
    """Resolve ``strategy="auto"``; any other strategy stays as given.

    ``auto`` is ``native`` when a C compiler and the interpreter's C
    headers are present and the binding asks for nothing the native
    core rejects (read-modify-write composition, the shadow cache),
    else ``specialize``.  The toolchain probe is memoized per process,
    so a fleet that resolves once before binding its devices probes
    once.
    """
    if strategy != "auto":
        return strategy
    from .native import native_available

    return ("native" if composition == "cache" and not shadow_cache
            and native_available() else "specialize")


@dataclass
class CompiledSpec:
    """A successfully verified specification and its artifacts."""

    source: str
    filename: str
    syntax: ast.DeviceDecl
    model: ResolvedDevice
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.model.name

    def bind(self, bus: Bus, bases: dict[str, int],
             debug: bool = True,
             composition: str = "cache",
             strategy: str = "interpret",
             shadow_cache: bool = False) -> DeviceInstance:
        """Instantiate executable stubs on ``bus`` at ``bases``.

        ``debug=True`` enables the run-time checks of §3.2, the
        equivalent of compiling with ``DEVIL_DEBUG`` defined.
        ``composition`` selects the shared-register write strategy
        (``"cache"``, Devil's; ``"read-modify-write"`` for the
        ablation benchmark).  ``strategy`` selects how the stubs
        execute: ``"interpret"`` (walk the resolved model per call),
        ``"specialize"`` (partial evaluation into straight-line
        closures at bind time — same semantics, faster calls; see
        :mod:`repro.devil.specialize`), ``"native"`` (compile the
        generated C stubs into a per-spec extension module and dispatch
        through it; see :mod:`repro.devil.native`; raises
        :class:`~repro.devil.native.NativeBuildError` if no C compiler
        or no ``Python.h`` is installed), or ``"auto"`` (``native`` when
        both are available, else ``specialize``).  ``shadow_cache=True``
        enables the volatility-aware register shadow cache: reads of
        registers whose last raw value is still authoritative are
        served without port I/O (see :mod:`repro.devil.plan`).
        """
        strategy = resolve_strategy(strategy, composition=composition,
                                    shadow_cache=shadow_cache)
        if strategy == "native":
            from .native import bind_native
            return bind_native(self.model, bus, bases, debug=debug,
                               composition=composition,
                               shadow_cache=shadow_cache)
        return DeviceInstance(self.model, bus, bases, debug=debug,
                              composition=composition,
                              strategy=strategy,
                              shadow_cache=shadow_cache)

    def emit_c(self, prefix: str | None = None, debug: bool = False) -> str:
        """Generate the C stub header (Figure 3c's artifact)."""
        from .codegen.c_backend import generate_c_header
        return generate_c_header(self.model, prefix=prefix, debug=debug)

    def emit_python(self, observe: bool = False) -> str:
        """Generate a standalone Python stub module.

        The specializer's emitter lowers the model in module mode (see
        :func:`repro.devil.specialize.generate_python_module`): the
        same straight-line stubs ``bind(strategy="specialize")`` runs,
        with ports relative to the bases the ``<Device>Stubs`` class
        receives and ``debug``/``shadow_cache`` chosen at construction.
        ``observe=True`` emits :mod:`repro.obs` telemetry hooks (span
        wrappers on public stubs, action-record probes); the default
        module has no hooks and no overhead.
        """
        from .specialize import generate_python_module
        return generate_python_module(self.model, observe=observe)

    def emit_doc(self) -> str:
        """Generate the Markdown datasheet (§4.1: specs double as
        documentation)."""
        from .docgen import generate_markdown
        return generate_markdown(self.model)


def compile_spec(source: str, filename: str = "<devil>",
                 tokens: Sequence[Token] | None = None,
                 baseline: Outline | None = None,
                 span: tuple[int, int] = (0, 0),
                 sink: DiagnosticSink | None = None) -> CompiledSpec:
    """Compile one Devil specification from source text.

    ``tokens``, when given, is the token list of ``source`` and is
    parsed instead of lexing it again; with ``baseline`` and ``span``
    only the declarations around a splice are parsed again (see
    :func:`~repro.devil.parser.parse`), and, if the baseline carries
    its recorded check (:func:`outline_spec`), only the declarations
    the edit can reach are checked again (see
    :func:`~repro.devil.checker.check`).  ``sink`` collects the
    diagnostics; the default reports every error, and a
    :class:`~repro.devil.errors.FirstErrorSink` stops at the first.
    Raises :class:`~repro.devil.errors.DevilParseError` or
    :class:`~repro.devil.errors.DevilCheckError` on invalid input.
    """
    syntax = parse(source, filename, tokens=tokens, baseline=baseline,
                   span=span)
    if sink is None:
        sink = DiagnosticSink()
    model = check(syntax, sink,
                  baseline.checked if baseline is not None else None)
    return CompiledSpec(source, filename, syntax, model,
                        warnings=list(sink.warnings))


def outline_spec(source: str, filename: str = "<devil>",
                 tokens: Sequence[Token] | None = None) -> Outline:
    """The :func:`~repro.devil.parser.outline` of ``source`` with its
    recorded check: the ``baseline`` of :func:`compile_spec` for
    edited copies of ``source``."""
    baseline = outline(source, filename, tokens)
    return baseline._replace(checked=record_check(baseline.syntax))


def compile_file(path: str) -> CompiledSpec:
    """Compile a ``.devil`` file from disk."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return compile_spec(source, filename=path)
