"""Compile-on-first-use loader for the package's C kernels.

A kernel is one self-contained C file shipped inside the package (each
is listed in ``[tool.setuptools.package-data]``).  :func:`load` builds
it with the system ``cc`` into a per-user cache and opens it with
:mod:`ctypes`.  The caller declares ``argtypes``/``restype``, and keeps
its pure-Python code as both the reference and the fallback.

* **Flags** — ``-O2 -ffp-contract=off -shared -fPIC``.  No
  ``-ffast-math`` and no floating-point contraction into fused
  multiply-adds, so a kernel written in Python's operation order rounds
  every float64 operation exactly as Python does.
* **Cache** — ``$XDG_CACHE_HOME/repro/native``, or
  ``~/.cache/repro/native`` when that is unset, created with mode 0700.
  Each build is named by a hash of its source, the flags and the
  platform, so an edited kernel or a new flag builds afresh.  Deleting
  the directory forces a rebuild.
* **Safety** — nothing is loaded from a cache directory the current
  user does not own, or one that group or others can write.  A build
  goes to a temporary name and is renamed into place, so a concurrent
  first use never opens a half-written object.
* **Fallback** — with no ``cc`` on ``PATH``, an unusable cache
  directory or a failed build, :func:`load` warns and returns ``None``.

Nothing happens at import: callers load lazily, once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Optional

#: Compiler flags of every kernel build (part of the cache key).
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_BUILD_TIMEOUT_S = 120


class _Unavailable(Exception):
    """Why a kernel cannot be built or loaded on this host."""


def cache_dir() -> Path:
    """Where built kernels live: ``$XDG_CACHE_HOME/repro/native``."""
    root = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(root, "repro", "native")


def load(source: Path) -> Optional[ctypes.CDLL]:
    """Build (or reuse the cached build of) ``source`` and load it.

    Returns ``None``, after one :class:`RuntimeWarning` naming the
    cause, when no kernel can be built or loaded here.
    """
    source = Path(source)
    try:
        return ctypes.CDLL(str(_build(source)))
    except (_Unavailable, OSError) as exc:
        warnings.warn(
            f"C kernel {source.name} unavailable ({exc}); "
            "running the pure-Python path",
            RuntimeWarning, stacklevel=2,
        )
        return None


def _build(source: Path) -> Path:
    code = source.read_bytes()
    key = hashlib.sha256(code)
    key.update(" ".join(CFLAGS).encode())
    key.update(f"{sys.platform}-{platform.machine()}".encode())
    directory = _private_dir(cache_dir())
    target = directory / f"{source.stem}-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    compiler = shutil.which("cc")
    if compiler is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    fd, partial = tempfile.mkstemp(prefix=f".{target.name}.", dir=directory)
    os.close(fd)
    try:
        try:
            built = subprocess.run(
                [compiler, *CFLAGS, "-o", partial, str(source)],
                capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise _Unavailable(
                f"cc did not finish within {_BUILD_TIMEOUT_S} s"
            ) from None
        if built.returncode != 0:
            raise _Unavailable(
                f"cc exited {built.returncode}: {built.stderr.strip()[-400:]}"
            )
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _private_dir(directory: Path) -> Path:
    """Create ``directory`` (mode 0700) and check nobody else can write it."""
    getuid = getattr(os, "getuid", None)
    if getuid is None:
        raise _Unavailable("cannot check cache ownership on this platform")
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError as exc:
        raise _Unavailable(f"cache directory {directory}: {exc}") from None
    if info.st_uid != getuid():
        raise _Unavailable(
            f"cache directory {directory} is not owned by the current user"
        )
    if info.st_mode & 0o022:
        raise _Unavailable(
            f"cache directory {directory} is group- or world-writable"
        )
    return directory
