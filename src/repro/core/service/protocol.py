"""Length-prefixed JSON wire protocol for the campaign service.

Every frame on the wire is a 4-byte big-endian payload length followed
by that many bytes of UTF-8 JSON; every payload is a JSON object with a
``"type"`` field.  The framing is deliberately dumb — no negotiation,
no versioned handshake beyond ``PROTOCOL_VERSION`` in the hello
exchange — because the interesting reliability work (leases,
heartbeats, dedup) lives above it in :mod:`~repro.core.service.broker`.

Message types (see docs/reliability.md §3c for the full table):

========== =========== ==================================================
direction  type        meaning
========== =========== ==================================================
worker →   ``hello``   register; reply is the ``job`` payload
worker →   ``beat``    heartbeat; reply ``ok``
worker →   ``lease``   ask for a cell; reply ``assign``/``wait``/``done``
worker →   ``result``  deliver a cell outcome/failure; reply ``ack``
worker →   ``bye``     deregister (best effort); reply ``ok``
========== =========== ==================================================

Numeric fidelity: outcomes cross the wire as JSON numbers.  Python's
``json`` emits shortest round-trip ``repr`` floats and parses them back
to the identical double, so a result that crossed the wire merges into
checkpoint JSON byte-identical to one computed in-process — the
byte-parity contract survives the network.

ndarrays (the evaluation slice in the ``job`` payload) travel as
``{"dtype", "shape", "data"}`` with base64-encoded contiguous bytes;
:class:`~repro.core.executor.WorkerRecipe` travels as nested plain
dicts rehydrated generically from dataclass type hints, so new config
sections ride along without touching this module.  The decoder is the
one definition of what a recipe field may be: a bare dataclass, or a
JSON leaf (an atom, or an Optional/Union/List/Dict of atoms).  It
refuses any other field annotation, whatever the payload holds, so a
field the wire cannot carry fails the recipe round trip, not a remote
worker.  The ``job`` frame comes from outside the process, so the
decoder refuses — with :class:`ProtocolError` — any payload a worker
could not build: an unknown field, a leaf that does not match its type
hint, a section that is not an object, or a config that fails its own
``validate()``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import socket
import struct
import sys
import typing

import numpy as np

from ...errors import ProtocolError, ReproError

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "decode_array",
    "decode_recipe",
    "encode_array",
    "encode_recipe",
    "parse_address",
    "recv_msg",
    "send_msg",
]

PROTOCOL_VERSION = 1

#: Ceiling on a single frame.  The largest legitimate payload is the
#: ``job`` message carrying the evaluation slice (~1 MiB at the default
#: 120 images); anything near this limit is a bug or an attack.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def send_msg(sock: socket.socket, msg: dict) -> None:
    """Frame and send one JSON message (blocking, whole frame)."""
    data = json.dumps(msg, separators=(",", ":")).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(data)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(_LEN.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF *before* any byte,
    :class:`ProtocolError` on EOF mid-read (a torn frame)."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict | None:
    """Receive one framed message; None on clean EOF at a frame boundary.

    Raises :class:`ProtocolError` for torn frames, oversized lengths,
    or payloads that are not JSON objects.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds limit {MAX_FRAME_BYTES}"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed between header and payload")
    try:
        msg = json.loads(payload)
    except ValueError as exc:
        raise ProtocolError(f"frame payload is not JSON: {exc}") from None
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(msg).__name__}"
        )
    return msg


def parse_address(text: str, default_host: str = "127.0.0.1",
                  allow_zero: bool = False) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or ``:PORT``) into an address tuple.

    ``allow_zero`` admits port 0 — meaningful only for a *bind* address
    ("pick a free port"); a worker connecting to port 0 is always a bug.
    """
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ProtocolError(f"bad broker address {text!r} "
                            "(expected HOST:PORT)")
    try:
        port_no = int(port)
    except ValueError:
        raise ProtocolError(f"bad broker port in {text!r}") from None
    floor = 0 if allow_zero else 1
    if not floor <= port_no <= 65535:
        raise ProtocolError(
            f"broker port {port_no} outside [{floor}, 65535]")
    return (host or default_host, port_no)


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


def encode_array(array: np.ndarray) -> dict:
    """ndarray -> JSON-safe dict (dtype + shape + base64 contiguous)."""
    arr = np.ascontiguousarray(array)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (bit-exact round trip)."""
    try:
        raw = base64.b64decode(payload["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return arr.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad array payload: {exc}") from None


#: Python types a JSON leaf may arrive as, per atom hint (an int is a
#: valid float).
_ATOMS = {int: int, float: (int, float), str: str, bool: bool,
          type(None): type(None)}


def _leaf_matches(hint, value) -> bool:
    """Whether a decoded JSON value fits a leaf's type hint: a finite
    JSON atom of the hinted type, or an Optional/List/Dict of those."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return any(_leaf_matches(arg, value) for arg in args)
    if origin in (list, dict):
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, origin) \
            and all(_leaf_matches(args[-1], v) for v in items)
    if isinstance(value, bool):   # an int subclass, but only a bool
        return hint is bool
    if isinstance(value, (int, float)) \
            and not abs(value) <= sys.float_info.max:
        return False              # NaN, infinities, unrepresentable ints
    return isinstance(value, _ATOMS.get(hint, ()))


def _leaf_hint(hint) -> bool:
    """Whether :func:`_leaf_matches` can judge values of ``hint``: a JSON
    atom, or an Optional/Union/List/Dict of leaf hints (a ``Dict`` keyed
    by ``str``, JSON's only key type)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        args = args[1:] if args[:1] == (str,) else ()
    if origin in (typing.Union, list, dict):
        return bool(args) and all(_leaf_hint(arg) for arg in args)
    return hint in _ATOMS


def _hint_text(hint) -> str:
    """A type hint as an error message spells it."""
    if isinstance(hint, type):
        return hint.__name__
    return str(hint).replace("typing.", "")


def _dataclass_from_dict(cls, data, where: str = ""):
    """Rehydrate a (possibly nested) dataclass from plain dicts.

    Field types are resolved from type hints, so any frozen-dataclass
    config section — including ones added after this module was written
    — round-trips without bespoke wire code.  Every field of ``cls``
    must be annotated with a bare dataclass or a leaf hint
    (:func:`_leaf_hint`), whatever ``data`` holds; unknown keys are
    refused (a worker must not silently drop config it does not
    understand), a nested dataclass must arrive as an object, and every
    leaf must match its hint (:func:`_leaf_matches`).
    """
    where = where or cls.__name__
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{where}: expected an object for {cls.__name__}, got "
            f"{type(data).__name__}"
        )
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    for name in names:
        hint = hints[name]
        if not (dataclasses.is_dataclass(hint) or _leaf_hint(hint)):
            raise ProtocolError(
                f"{where}.{name}: the wire codec cannot rehydrate "
                f"{_hint_text(hint)}")
    unknown = set(data).difference(names)
    if unknown:
        raise ProtocolError(
            f"unknown {cls.__name__} field(s) on the wire: "
            f"{sorted(unknown)}"
        )
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            value = _dataclass_from_dict(hint, value, f"{where}.{name}")
        elif not _leaf_matches(hint, value):
            raise ProtocolError(
                f"{where}.{name}: {value!r:.40} does not fit "
                f"{_hint_text(hint)}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ProtocolError(f"bad {cls.__name__} payload: {exc}") from None


def encode_recipe(recipe) -> dict:
    """:class:`~repro.core.executor.WorkerRecipe` -> plain dicts."""
    return dataclasses.asdict(recipe)


def decode_recipe(payload: dict):
    """Inverse of :func:`encode_recipe` (equality-exact round trip).

    Raises :class:`ProtocolError` for any payload a worker could not
    build, including one whose config fails ``validate()``.
    """
    from ..executor import WorkerRecipe

    recipe = _dataclass_from_dict(WorkerRecipe, payload)
    try:
        recipe.config.validate()
    except ReproError as exc:
        raise ProtocolError(f"recipe config refused: {exc}") from None
    return recipe
