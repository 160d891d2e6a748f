"""Native execution strategy: compiled C dispatch core.

``bind(..., strategy="native")`` compiles the spec's generated C stub
header plus a small C runtime shim (port-table dispatch, mask/shift
composition, accounting counters, bounded trace ring) into a per-spec
shared library and drives it through ctypes in ABI mode.  See
:mod:`repro.devil.native.instance` for the exactness contract and
:mod:`repro.devil.native.build` for toolchain discovery and the
on-disk build cache.
"""

from __future__ import annotations

from .build import (NativeBuildError, build_library, cache_dir,
                    find_compiler, load_library, native_available)
from .instance import NativeDeviceInstance
from .shim import generate_shim


def bind_native(model, bus, bases, debug: bool = True,
                composition: str = "cache",
                shadow_cache: bool = False) -> NativeDeviceInstance:
    """Bind ``model`` with the compiled C dispatch core.

    The library is the ``--with-models`` shim variant (C ports of the
    IDE and Permedia2 hot registers for zero-crossing direct batches).
    Raises :class:`NativeBuildError` when no C compiler is available;
    ``bind(strategy="auto")`` catches that upstream and falls back to
    the specializer.
    """
    return NativeDeviceInstance(model, bus, bases, debug=debug,
                                composition=composition,
                                shadow_cache=shadow_cache)


__all__ = [
    "NativeBuildError",
    "NativeDeviceInstance",
    "bind_native",
    "build_library",
    "cache_dir",
    "find_compiler",
    "generate_shim",
    "load_library",
    "native_available",
]
