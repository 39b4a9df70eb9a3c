"""Backend-purity rule.

The pluggable array path (``repro/accel/xp.py``) is the *only* place
optional accelerator packages may be reached: backends resolve lazily
through :func:`repro.accel.xp.get_backend` and its entry points, so an
uninstalled CuPy/JAX costs nothing and an installed one is reached the
same way on every path (engine matmuls, PDN pricing).  A bare
``import cupy`` anywhere else breaks both halves of that contract — it
makes the module unimportable without the optional package, and it
sidesteps the entry-point registry that lets third-party backends plug
in.

``REPRO-XP001`` flags any import of an optional accelerator package
outside the shim.  Plain ``numpy`` imports stay legal everywhere:
numpy is the always-present host/reference side of the contract, and
device arrays are obtained from ``backend.asarray`` rather than by
import.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import FileContext, Rule
from ..findings import Finding

__all__ = ["BackendPurityRule"]

#: Optional accelerator packages, by top-level module name.
_OPTIONAL_BACKENDS = frozenset({"cupy", "cupyx", "jax", "jaxlib"})

#: The one module allowed to import them.
_SHIM = "repro/accel/xp.py"


class BackendPurityRule(Rule):
    rule_id = "REPRO-XP001"
    title = "optional backends only via the xp shim"
    contract = ("Only repro/accel/xp.py imports cupy/jax; every other "
                "module reaches alternate array backends through "
                "get_backend(), so absence of an optional package "
                "costs nothing.")
    hint = ("resolve the backend with repro.accel.xp.get_backend(name) "
            "and use backend.xp / backend.asarray; never import "
            "cupy/jax directly")
    scopes = ("repro/*",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.relpath == _SHIM:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _OPTIONAL_BACKENDS:
                        yield self.finding(
                            ctx, node,
                            f"direct import of optional backend "
                            f"'{alias.name}' outside the xp shim",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                top = (node.module or "").split(".")[0]
                if top in _OPTIONAL_BACKENDS:
                    yield self.finding(
                        ctx, node,
                        f"direct import from optional backend "
                        f"'{node.module}' outside the xp shim",
                    )
