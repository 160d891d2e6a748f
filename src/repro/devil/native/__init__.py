"""Native execution strategy: compiled C dispatch core.

``bind(..., strategy="native")`` compiles the spec's generated C stub
header plus a C runtime shim (port-table dispatch, mask/shift
composition, accounting counters, the C-resident IDE and Permedia2
models) into a per-spec CPython extension module, built against the
interpreter's own C headers, and calls its entry points directly.  See
:mod:`repro.devil.native.instance` for the exactness contract,
:mod:`repro.devil.native.shim` for the module and
:mod:`repro.devil.native.build` for toolchain discovery and the
on-disk build cache.
"""

from __future__ import annotations

from .build import (NativeBuildError, build_library, build_module,
                    cache_dir, find_compiler, native_available)
from .instance import NativeDeviceInstance
from .shim import generate_shim


def bind_native(model, bus, bases, debug: bool = True,
                composition: str = "cache",
                shadow_cache: bool = False) -> NativeDeviceInstance:
    """Bind ``model`` with the compiled C dispatch core.

    Raises :class:`NativeBuildError` when no C compiler or no
    ``Python.h`` is available; ``bind(strategy="auto")`` checks
    :func:`native_available` first and falls back to the specializer.
    """
    return NativeDeviceInstance(model, bus, bases, debug=debug,
                                composition=composition,
                                shadow_cache=shadow_cache)


__all__ = [
    "NativeBuildError",
    "NativeDeviceInstance",
    "bind_native",
    "build_library",
    "build_module",
    "cache_dir",
    "find_compiler",
    "generate_shim",
    "native_available",
]
