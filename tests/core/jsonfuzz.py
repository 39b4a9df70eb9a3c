"""Hypothesis helpers for fuzzing JSON documents that arrive from
outside the process (``job`` and ``result`` frames, checkpoint files,
cell-cache entries)."""

import typing

from hypothesis import strategies as st

#: Any JSON value a torn, foreign or hostile document could hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def value_paths(node, prefix=()):
    """Every key/index path into a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from value_paths(value, prefix + (key,))


def replaced(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value`` (in place)."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def ill_typed(cls, record):
    """The entries of ``record`` — a decoded or re-serialized record of
    the dataclass ``cls``, an outcome or a cell failure — that do not
    fit their field's annotation.  A bool is never an int; a float field
    may hold an int or NaN."""
    allowed = {int: int, float: (int, float), str: str}
    hints = typing.get_type_hints(cls)
    return {name: value for name, value in record.items()
            if isinstance(value, bool)
            or not isinstance(value, allowed[hints[name]])}
