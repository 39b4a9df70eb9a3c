"""Wire-protocol completeness rule.

The campaign service ships :class:`~repro.core.executor.WorkerRecipe`
to workers as nested plain dicts and rehydrates it *generically* from
dataclass type hints
(:func:`repro.core.service.protocol._dataclass_from_dict`).  That codec
is deliberately schema-free — new config sections ride along without
wire code — but it only works for annotations it can actually act on:

* a nested dataclass must be annotated *bare* (``clock: ClockConfig``).
  ``Optional[ClockConfig]`` fails the codec's
  ``dataclasses.is_dataclass(hint)`` check, so the codec treats the
  field as a leaf and refuses the raw ``dict`` a valid recipe sends.
* every leaf must survive a JSON round trip.  JSON has no tuple, so
  a ``Tuple[...]`` field, top-level or nested, comes back as ``list``
  (equality breaks), and ``bytes``/``np.ndarray``/``Callable`` do not
  serialize at all (ndarrays have their own bespoke codec and never
  ride inside the recipe).

``REPRO-WIRE001`` statically walks every dataclass reachable from the
wire roots and flags any field annotation the codec cannot faithfully
rehydrate — so adding a field that would silently drop or drift on the
wire fails lint, long before a distributed campaign notices.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine import FileContext, ProjectRule
from ..findings import Finding

__all__ = ["WireCompletenessRule"]

#: JSON-native leaf annotations (round-trip exactly through json.dumps).
_JSON_ATOMS = frozenset({"int", "float", "str", "bool", "None"})

#: Generic containers that round-trip as themselves.
_JSON_CONTAINERS = frozenset({"List", "list", "Dict", "dict"})

#: Wrappers that are transparent to the check (classify the payload).
_TRANSPARENT = frozenset({"Optional", "Union", "Final", "ClassVar"})


@dataclass
class _DataclassInfo:
    ctx: FileContext
    node: ast.ClassDef
    fields: List[Tuple[str, ast.AST]]


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.id if isinstance(target, ast.Name) else \
            target.attr if isinstance(target, ast.Attribute) else ""
        if name == "dataclass":
            return True
    return False


def _annotation_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant):
        if node.value is None:
            return "None"
        if isinstance(node.value, str):
            return node.value  # forward reference
    return ""


class WireCompletenessRule(ProjectRule):
    rule_id = "REPRO-WIRE001"
    title = "wire dataclasses rehydrate from type hints"
    contract = ("Every field reachable from WorkerRecipe is an "
                "annotation the generic wire codec can faithfully "
                "rehydrate, so a new field can never silently drop or "
                "drift on the wire.")
    hint = ("annotate nested dataclasses bare (not Optional[...]/"
            "containers), keep leaves JSON-native (int/float/str/bool/"
            "Optional of those, or List/Dict of those); anything else "
            "needs bespoke codec support in core/service/protocol.py")
    scopes = ("repro/*",)

    #: Dataclasses that cross the wire as hint-rehydrated dicts.
    wire_roots: Tuple[str, ...] = ("WorkerRecipe",)

    #: The module expected to define the roots (missing-root findings
    #: only fire when this file is part of the linted set).
    wire_root_home = "repro/core/executor.py"

    def check_project(self, ctxs: Sequence[FileContext]
                      ) -> Iterable[Finding]:
        registry: Dict[str, _DataclassInfo] = {}
        for ctx in ctxs:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) \
                        and _is_dataclass_def(node):
                    fields = [
                        (stmt.target.id, stmt.annotation)
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                    ]
                    registry[node.name] = _DataclassInfo(ctx, node, fields)

        findings: List[Finding] = []
        visited: Set[str] = set()
        # Only demand the roots when the linted set includes the module
        # that defines them — a single-file lint of some other module
        # should not complain that WorkerRecipe is elsewhere, but a
        # full-tree lint (which always covers executor.py) must fail if
        # the root was renamed away.
        covers_home = any(c.relpath == self.wire_root_home for c in ctxs)
        for root in self.wire_roots:
            if root not in registry:
                # the contract anchor itself vanished — that is a finding,
                # not a silent pass (rename the root here if intentional)
                if covers_home:
                    findings.append(self.finding(
                        ctxs[0], ctxs[0].tree,
                        f"wire root dataclass '{root}' not found in the "
                        "linted tree",
                        hint="update WireCompletenessRule.wire_roots if "
                             "the recipe class was deliberately renamed",
                    ))
                continue
            self._check_class(root, registry, visited, findings)
        return findings

    def _check_class(self, name: str, registry: Dict[str, _DataclassInfo],
                     visited: Set[str], findings: List[Finding]) -> None:
        if name in visited:
            return
        visited.add(name)
        info = registry[name]
        for field_name, annotation in info.fields:
            problem = self._classify(annotation, registry, nested=False)
            if problem is not None:
                findings.append(self.finding(
                    info.ctx, annotation,
                    f"{name}.{field_name}: {problem}",
                ))
            for child in self._nested_dataclasses(annotation, registry):
                self._check_class(child, registry, visited, findings)

    def _nested_dataclasses(self, node: ast.AST,
                            registry: Dict[str, _DataclassInfo]
                            ) -> List[str]:
        found = []
        for sub in ast.walk(node):
            name = _annotation_name(sub)
            if name in registry:
                found.append(name)
        return found

    def _classify(self, node: ast.AST,
                  registry: Dict[str, _DataclassInfo],
                  nested: bool) -> Optional[str]:
        """None when the codec rehydrates this annotation faithfully,
        else a message describing the wire hazard.  ``nested`` is True
        inside a container/Optional, where dataclasses are invisible to
        the codec's top-level is_dataclass(hint) check."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # PEP 604 ``X | None`` — same semantics as Optional[X]
            for side in (node.left, node.right):
                problem = self._classify(side, registry, nested=True)
                if problem is not None:
                    return problem
            return None
        name = _annotation_name(node)
        if name in registry:
            if nested:
                return (f"dataclass '{name}' wrapped in a container/"
                        "Optional — the codec only rehydrates *bare* "
                        "dataclass hints, so it refuses the raw dict "
                        "sent for this")
            return None
        if name in _JSON_ATOMS:
            return None
        if isinstance(node, ast.Subscript):
            base = _annotation_name(node.value)
            payload = node.slice
            elements = payload.elts if isinstance(payload, ast.Tuple) \
                else [payload]
            if base in _TRANSPARENT:
                # Optional[X] is Union[X, None]; classify the payload
                for element in elements:
                    problem = self._classify(element, registry,
                                             nested=True)
                    if problem is not None:
                        return problem
                return None
            if base in _JSON_CONTAINERS:
                for element in elements:
                    problem = self._classify(element, registry,
                                             nested=True)
                    if problem is not None:
                        return problem
                return None
            if base in ("Tuple", "tuple"):
                return ("tuple field — JSON has no tuple, so this "
                        "arrives as a list")
            return (f"container '{base}[...]' is not JSON-rehydratable "
                    "by the generic codec")
        if name in ("Tuple", "tuple"):
            return ("tuple field — JSON has no tuple, so this arrives "
                    "as a list")
        if name == "Any":
            return "'Any' annotation — not statically wire-safe"
        return (f"type '{name or ast.dump(node)[:40]}' is not "
                "JSON-serializable through the generic wire codec")
