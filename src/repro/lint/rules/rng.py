"""RNG-discipline rules.

The byte-parity guarantees (docs/performance.md §2) rest on every
random draw flowing from an explicitly seeded, explicitly threaded
:class:`numpy.random.Generator`: cells derive blake2s seeds, engines
consume the cell generator in a pinned order, and nothing ever touches
process-global RNG state.  Three rules guard that contract:

* ``REPRO-RNG001`` — no legacy global-state calls
  (``np.random.seed`` / ``np.random.shuffle`` / ...): global state is
  shared across every caller in the process, so one stray call
  perturbs streams owned by someone else.
* ``REPRO-RNG002`` — no unseeded ``default_rng()``: an OS-entropy
  generator is unreproducible by construction.
* ``REPRO-RNG003`` — hot-path modules must *thread* generators, not
  re-create them inside loops: a ``default_rng(seed)`` per iteration
  restarts the stream and silently decouples the draw order from the
  serial reference.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..engine import FileContext, Rule
from ..findings import Finding
from ._imports import ImportTable

__all__ = ["GlobalStateRngRule", "UnseededRngRule", "HotLoopRngRule"]

#: numpy.random module-level functions backed by the hidden global
#: RandomState (the legacy API).
_GLOBAL_STATE_FNS = frozenset({
    "seed", "get_state", "set_state", "rand", "randn", "randint",
    "random", "random_sample", "ranf", "sample", "bytes", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
    "beta", "binomial", "poisson", "exponential", "gamma", "laplace",
    "lognormal", "multinomial", "multivariate_normal", "geometric",
})


def _rng_calls(ctx: FileContext):
    """Yield ``(node, origin)`` for every call into numpy.random."""
    table = ImportTable(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = table.resolve(node.func)
        if origin and origin.startswith("numpy.random."):
            yield node, origin


class GlobalStateRngRule(Rule):
    rule_id = "REPRO-RNG001"
    title = "no global-state numpy RNG"
    contract = ("All randomness flows through explicitly seeded "
                "Generator objects; the legacy numpy.random global "
                "state is never touched.")
    hint = ("draw from a threaded numpy.random.Generator "
            "(np.random.default_rng(seed)) instead of the process-global "
            "legacy API")
    scopes = ("repro/*",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node, origin in _rng_calls(ctx):
            fn = origin.rsplit(".", 1)[-1]
            if fn in _GLOBAL_STATE_FNS:
                yield self.finding(
                    ctx, node,
                    f"call to global-state RNG 'np.random.{fn}' "
                    "(shared mutable stream)",
                )


class UnseededRngRule(Rule):
    rule_id = "REPRO-RNG002"
    title = "no unseeded default_rng()"
    contract = ("Every Generator is constructed from an explicit seed "
                "so campaigns replay byte-identically.")
    hint = ("pass an explicit seed (or an SeedSequence derived from "
            "the cell seed): default_rng() seeds from OS entropy and "
            "can never be replayed")
    scopes = ("repro/*",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node, origin in _rng_calls(ctx):
            if origin == "numpy.random.default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    ctx, node, "default_rng() without a seed "
                    "(OS-entropy generator, unreproducible)",
                )


class HotLoopRngRule(Rule):
    rule_id = "REPRO-RNG003"
    title = "thread generators through hot paths"
    contract = ("Hot-path modules receive their Generator as a "
                "parameter; re-creating one per loop iteration restarts "
                "the stream and breaks the pinned draw order.")
    hint = ("hoist the default_rng(...) call out of the loop and thread "
            "the Generator, or derive it from the blake2s cell seed via "
            "_cell_seed (see the RNG stream-order contract in "
            "docs/performance.md)")
    #: The vectorized injection/evaluation hot paths, where stream
    #: order is a documented public contract.
    scopes = (
        "repro/accel/engine.py",
        "repro/fpga/pdn.py",
        "repro/dsp/*",
    )

    @staticmethod
    def _is_cell_seed_derived(call: ast.Call) -> bool:
        """True when the generator is (re)derived from the blake2s cell
        seed — ``default_rng(_cell_seed(...))`` is *the* sanctioned way
        to start a per-cell stream, loop or not."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(arg):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else \
                        func.attr if isinstance(func, ast.Attribute) else ""
                    if name == "_cell_seed":
                        return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        table = ImportTable(ctx.tree)
        findings: List[Finding] = []

        def walk(node: ast.AST, loop_depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                depth = loop_depth
                if isinstance(child, (ast.For, ast.While, ast.AsyncFor)):
                    depth += 1
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef, ast.Lambda)):
                    # a nested def runs later; its loops are its own
                    depth = 0
                if isinstance(child, ast.Call):
                    origin = table.resolve(child.func)
                    if origin == "numpy.random.default_rng" \
                            and loop_depth > 0 \
                            and not self._is_cell_seed_derived(child):
                        findings.append(self.finding(
                            ctx, child,
                            "Generator constructed inside a loop on a "
                            "hot path (stream restarts every iteration)",
                        ))
                walk(child, depth)

        walk(ctx.tree, 0)
        return findings
