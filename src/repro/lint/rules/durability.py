"""Durability-discipline rule.

Checkpoints, cache entries, campaign JSON, zoo weights, and CLI report
artifacts must survive a host crash: the repo's one writer
(:func:`repro.core.campaign._atomic_write`, with its text form
``_atomic_write_text``; the zoo saves its weight archives through it)
writes a same-directory temp file, fsyncs it, ``os.replace``s it over
the target, and fsyncs the directory — a reader finds either the old
content or the complete new one, never a torn file.  A bare
``open(path, "w")`` has none of those properties: a crash mid-write
leaves a truncated artifact that a resume will happily parse.

``REPRO-DUR001`` flags write-mode ``open`` calls and
``Path.write_text`` / ``Path.write_bytes`` in the artifact-writing
modules (``repro/core``, ``repro/zoo.py``, ``repro/cli.py``).
``os.fdopen`` is deliberately not flagged — it is how the atomic
writer itself drives its fsynced temp file.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..engine import FileContext, Rule
from ..findings import Finding

__all__ = ["DurableWriteRule"]

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _open_mode(node: ast.Call) -> Optional[str]:
    """The constant mode of a builtin ``open`` call, if statically known
    (default mode is ``"r"``)."""
    mode: object = "r"
    if len(node.args) >= 2:
        mode = node.args[1]
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    if isinstance(mode, str):
        return mode
    return None


class DurableWriteRule(Rule):
    rule_id = "REPRO-DUR001"
    title = "artifact writes are fsync-atomic"
    contract = ("Every JSON/checkpoint/cache/report write in core, the "
                "zoo, and the CLI routes through the fsync-atomic "
                "writer, so a crash never leaves a torn artifact.")
    hint = ("write via repro.core.campaign._atomic_write_text "
            "(temp file + fsync + os.replace + dir fsync) instead of a "
            "bare open/write_text")
    scopes = ("repro/core/*", "repro/zoo.py", "repro/cli.py")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = _open_mode(node)
                if mode is not None and any(c in mode for c in "wax"):
                    yield self.finding(
                        ctx, node,
                        f"bare open(..., {mode!r}): non-atomic, "
                        "non-durable artifact write",
                    )
            elif isinstance(func, ast.Attribute) \
                    and func.attr in _WRITE_METHODS:
                yield self.finding(
                    ctx, node,
                    f"Path.{func.attr}() bypasses the fsync-atomic "
                    "writer (torn file after a crash)",
                )
