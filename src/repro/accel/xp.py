"""Pluggable array-namespace backends (the ``xp`` shim).

The engine and the PDN do their tensor math through a *backend object*
instead of importing :mod:`numpy` directly — the thin-shim pattern of
the scipy/sklearn ``xp`` convention.  NumPy is built in and is the
reference backend: the byte-parity contracts of ``docs/performance.md``
are stated for ``numpy`` + the fixed-point dtype policy, while the
float32 fast path and any other backend are held to the *differential
tolerance* tier instead (``tests/accel/test_backend_parity.py``).

Any other backend is a third-party package that registers a loader
under the ``repro.array_backends`` ``importlib.metadata`` entry-point
group; loaders are imported only when their backend is requested, so
an absent package costs nothing.  Requesting a backend whose package
is not installed raises :class:`~repro.errors.ConfigError` with an
actionable message; :func:`backend_available` lets tests and CLI code
probe first and skip cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as _np

from ..errors import ConfigError

__all__ = [
    "ArrayBackend",
    "available_backends",
    "backend_available",
    "get_backend",
]

ENTRY_POINT_GROUP = "repro.array_backends"


@dataclass(frozen=True)
class ArrayBackend:
    """One resolved array namespace plus its host<->device bridges.

    ``xp`` is the namespace module (``numpy`` for the built-in
    backend); ``asarray`` moves host data onto the backend and
    ``asnumpy`` brings results back as plain :class:`numpy.ndarray`
    (identity for numpy).  ``lfilter`` is the backend's IIR filter for
    the PDN recurrence, or None when the backend has no vectorized
    filter (the PDN then falls back to its scalar reference loop).
    """

    name: str
    xp: object
    asarray: Callable[..., object]
    asnumpy: Callable[[object], _np.ndarray]
    lfilter: Optional[Callable] = None

    def __repr__(self) -> str:  # keep config dumps readable
        return f"ArrayBackend({self.name!r})"


def _numpy_backend() -> ArrayBackend:
    try:
        from scipy.signal import lfilter as _lfilter
    except ImportError:  # pragma: no cover - scipy ships with the toolchain
        _lfilter = None
    return ArrayBackend(
        name="numpy",
        xp=_np,
        asarray=_np.asarray,
        asnumpy=_np.asarray,
        lfilter=_lfilter,
    )


#: Built-in loaders; values are zero-arg callables, like entry points.
_BUILTIN: Dict[str, Callable[[], ArrayBackend]] = {
    "numpy": _numpy_backend,
}

#: Resolved-backend cache (a backend is stateless; one instance is fine).
_CACHE: Dict[str, ArrayBackend] = {}


def _entry_point_loaders() -> Dict[str, Callable[[], ArrayBackend]]:
    """Third-party loaders registered under ``repro.array_backends``."""
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py3.7 only
        return {}
    try:
        eps = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - pre-3.10 selectable API
        eps = entry_points().get(ENTRY_POINT_GROUP, ())
    return {ep.name: ep.load for ep in eps}


def available_backends() -> Tuple[str, ...]:
    """Every *registered* backend name (built-in + entry points).

    Registration is not installation: an entry point is listed even
    when :func:`get_backend` for it fails because its package does not
    import.
    """
    names = dict.fromkeys(_BUILTIN)
    names.update(dict.fromkeys(_entry_point_loaders()))
    return tuple(names)


def backend_available(name: str) -> bool:
    """True when ``name`` is registered *and* its package imports."""
    try:
        get_backend(name)
    except ConfigError:
        return False
    return True


def get_backend(name: str = "numpy") -> ArrayBackend:
    """Resolve a backend by name.

    Unknown names and registered-but-uninstalled packages both raise
    :class:`~repro.errors.ConfigError`; the messages differ so a typo
    is distinguishable from a missing optional dependency.
    """
    cached = _CACHE.get(name)
    if cached is not None:
        return cached
    loader = _BUILTIN.get(name)
    if loader is None:
        loader = _entry_point_loaders().get(name)
    if loader is None:
        raise ConfigError(
            f"unknown array backend '{name}' "
            f"(registered: {', '.join(available_backends())})"
        )
    try:
        backend = loader()
    except ImportError as exc:
        raise ConfigError(
            f"array backend '{name}' is registered but its package is "
            f"not installed ({exc}); install it or use backend='numpy'"
        ) from exc
    if not isinstance(backend, ArrayBackend):
        raise ConfigError(
            f"backend loader for '{name}' returned "
            f"{type(backend).__name__}, expected ArrayBackend"
        )
    _CACHE[name] = backend
    return backend
