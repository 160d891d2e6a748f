"""Code generators: the Devil compiler's backends.

* :mod:`~repro.devil.codegen.c_backend` emits the C stub header the
  paper's compiler produced (Figure 3c) — ``static inline`` accessors
  over a state struct, with ``DEVIL_DEBUG`` run-time checks and the
  ``DEVIL_NO_REF`` single-device macro layer.
* :mod:`~repro.devil.codegen.pyi_backend` emits the ``.pyi`` typing
  stubs of a bound device's stub surface.

The standalone Python stub module comes from the specializer's emitter
(:func:`repro.devil.specialize.generate_python_module`, re-exported
here): one Python lowering serves both ``bind(strategy="specialize")``
and ``emit_python()``.
"""

from ..specialize import generate_python_module
from .c_backend import generate_c_header

__all__ = ["generate_c_header", "generate_python_module"]
