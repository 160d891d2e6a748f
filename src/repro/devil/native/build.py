"""Toolchain discovery and the on-disk native build cache.

A native bind compiles ``<spec>.dil.h`` + the shim into a CPython
extension module with whatever C compiler the machine has (``$CC``,
``cc``, ``gcc`` or ``clang``, in that order), against the running
interpreter's C headers (``sysconfig.get_paths()["include"]``).
Compiled modules are cached on disk keyed by ``(source hash, debug
flag, toolchain id, codegen version, the interpreter's EXT_SUFFIX)``
so re-binds — and every bind after the first in a fleet — are
instant.  Cold-cache builds are serialized per target by
an ``fcntl.flock`` on ``<target>.lock`` with a second existence check
after acquisition, so N fleet workers (threads *or* processes)
cold-binding the same spec concurrently produce exactly one compiler
invocation; publication stays atomic (``os.replace``) as a belt for
cross-host caches where flock may not reach.  Modules are imported
from their cache path and memoized in-process.

No compiler, or no ``Python.h``, is a supported configuration:
``native_available()`` is ``False`` and ``bind(strategy="auto")``
falls back to the specializer.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

try:
    import fcntl
except ImportError:                     # non-POSIX: atomic publish only
    fcntl = None

from ..codegen.c_backend import CODEGEN_VERSION
from ..errors import DevilRuntimeError
from .shim import module_name

#: Environment override for the cache directory (CI points this at a
#: directory restored across runs).
CACHE_ENV = "DEVIL_NATIVE_CACHE"

#: Flags the cache key includes: changing them invalidates cached .so.
#: ``-pthread`` backs the per-device mutex in the shim's entry frames.
CFLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-pthread")

#: Number of actual compiler invocations this process performed
#: (observable cache behaviour for tests and benchmarks).
BUILD_COUNT = 0


class NativeBuildError(DevilRuntimeError):
    """Toolchain missing or the compiler rejected generated code."""


_LOCK = threading.Lock()
#: (compiler path, compiler version id, include directory holding
#: Python.h); None until discovered.
_TOOLCHAIN: tuple[str | None, str, str | None] | None = None
_LOADED: dict[str, object] = {}


def cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "devil-native"


def find_compiler() -> str | None:
    """Absolute path of the C compiler to use, or None."""
    return _toolchain()[0]


def native_available() -> bool:
    """A C compiler and the interpreter's ``Python.h`` are present."""
    cc, _, include = _toolchain()
    return cc is not None and include is not None


def compiler_id() -> str:
    """Toolchain identity string baked into the cache key."""
    return _toolchain()[1]


def _toolchain() -> tuple[str | None, str, str | None]:
    global _TOOLCHAIN
    cached = _TOOLCHAIN
    if cached is not None:
        return cached
    with _LOCK:
        if _TOOLCHAIN is None:
            include = sysconfig.get_paths()["include"]
            headers = os.path.exists(os.path.join(include, "Python.h"))
            _TOOLCHAIN = (*_discover(), include if headers else None)
        return _TOOLCHAIN


def _discover() -> tuple[str | None, str]:
    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for candidate in candidates:
        if not candidate:
            continue
        path = shutil.which(candidate)
        if path is None:
            continue
        try:
            probe = subprocess.run([path, "--version"],
                                   capture_output=True, text=True,
                                   timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue
        first = probe.stdout.splitlines()[0] if probe.stdout else path
        return path, first.strip()
    return None, "none"


def _reset_compiler_cache() -> None:
    """Test hook: forget the discovered toolchain."""
    global _TOOLCHAIN
    with _LOCK:
        _TOOLCHAIN = None


def build_key(name: str, header: str, shim: str, debug: bool) -> str:
    """Cache key: (spec sources, debug flag, toolchain, codegen version,
    the interpreter's extension ABI)."""
    digest = hashlib.sha256()
    for part in (f"codegen={CODEGEN_VERSION}", compiler_id(),
                 f"ext={sysconfig.get_config_var('EXT_SUFFIX')}",
                 " ".join(CFLAGS), f"debug={int(debug)}", header, shim):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:20]


def build_library(name: str, header: str, shim: str,
                  debug: bool) -> Path:
    """Compile (or fetch from cache) one spec's extension module."""
    global BUILD_COUNT
    cc = find_compiler()
    if cc is None:
        raise NativeBuildError(
            "no C compiler found for strategy='native' (searched $CC, "
            "cc, gcc, clang); install one or bind with strategy='auto' "
            "to fall back to the specializer")
    include = _toolchain()[2]
    if include is None:
        raise NativeBuildError(
            f"strategy='native' needs the interpreter's C headers, and "
            f"{sysconfig.get_paths()['include']} has no Python.h; "
            f"install them or bind with strategy='auto' to fall back "
            f"to the specializer")
    flavor = "dbg" if debug else "rel"
    key = build_key(name, header, shim, debug)
    directory = cache_dir()
    target = directory / f"{name}-{flavor}-{key}.so"
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    # Serialize the cold build per target: without this, N workers
    # racing an empty cache each spawn a compiler (correct but N× the
    # cost, and historically a corruption risk against non-atomic
    # caches).  flock is advisory, per open-file-description, and
    # released on close even if the holder dies mid-compile.
    lock_file = None
    if fcntl is not None:
        lock_file = open(directory / f"{target.name}.lock", "w")
        fcntl.flock(lock_file, fcntl.LOCK_EX)
    try:
        if target.exists():            # second check: lock-holder built it
            return target
        workdir = Path(tempfile.mkdtemp(prefix=f"build-{name}-",
                                        dir=directory))
        try:
            (workdir / f"{name}.dil.h").write_text(header)
            source = workdir / f"{name}_shim.c"
            source.write_text(shim)
            produced = workdir / target.name
            command = [cc, *CFLAGS, f"-I{include}", str(source), "-o",
                       str(produced)]
            result = subprocess.run(command, capture_output=True,
                                    text=True, cwd=workdir, timeout=120)
            if result.returncode != 0:
                raise NativeBuildError(
                    f"native build of spec {name!r} failed "
                    f"({' '.join(command)}):\n{result.stderr.strip()}")
            BUILD_COUNT += 1
            os.replace(produced, target)   # atomic publish
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        if lock_file is not None:
            fcntl.flock(lock_file, fcntl.LOCK_UN)
            lock_file.close()
    return target


def build_module(name: str, header: str, shim: str, debug: bool):
    """Compile (or fetch from cache) and import one spec's extension
    module, memoized per module file."""
    path = str(build_library(name, header, shim, debug))
    module = _LOADED.get(path)
    if module is None:
        loader = importlib.machinery.ExtensionFileLoader(module_name(name),
                                                         path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        module = _LOADED.setdefault(path, module)
    return module
