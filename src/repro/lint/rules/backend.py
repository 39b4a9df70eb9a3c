"""Numpy-only array rule.

The simulator does its array math in one namespace, numpy: the fxp
reference tier pins its bytes in numpy semantics and the fp32 tier its
tolerance, and no other backend is tested.  An optional accelerator
package (CuPy, JAX) imported anywhere would make the importing module
fail on machines without it and bring in arithmetic neither parity
tier covers.

``REPRO-XP001`` flags any import of an optional accelerator package in
any module under ``repro/``.  Plain ``numpy`` (and ``scipy``) imports
stay legal everywhere.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import FileContext, Rule
from ..findings import Finding

__all__ = ["BackendPurityRule"]

#: Optional accelerator packages, by top-level module name.
_OPTIONAL_BACKENDS = frozenset({"cupy", "cupyx", "jax", "jaxlib"})


class BackendPurityRule(Rule):
    rule_id = "REPRO-XP001"
    title = "no optional array backends"
    contract = ("No module imports cupy/jax: array math runs in numpy, "
                "the namespace both parity tiers (fxp bytes, fp32 "
                "tolerance) are stated in, so the package imports "
                "anywhere numpy does.")
    hint = ("use numpy (scipy.signal for recurrence filters); a new "
            "array backend needs its own parity tier before it may be "
            "imported")
    scopes = ("repro/*",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _OPTIONAL_BACKENDS:
                        yield self.finding(
                            ctx, node,
                            f"import of optional array backend "
                            f"'{alias.name}'",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                top = (node.module or "").split(".")[0]
                if top in _OPTIONAL_BACKENDS:
                    yield self.finding(
                        ctx, node,
                        f"import from optional array backend "
                        f"'{node.module}'",
                    )
