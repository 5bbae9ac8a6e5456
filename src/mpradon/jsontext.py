"""JSON text for reports: the bytes ``json.dumps`` writes with an indent of 2 and sorted keys.

The standard library runs its pure-Python encoder whenever ``indent`` is
set (up to Python 3.12), which makes a large report's text cost about as
much as its verdict.  ``dumps`` writes the same text into one list of
strings: a leaf goes through ``json``'s own ASCII string escaper,
``int.__repr__`` or ``float.__repr__`` (with json's ``NaN`` and
``Infinity`` spellings), an array of leaves is one ``join``, and dict items
are sorted as ``json`` sorts them.  Like ``json``, it takes subclasses of
str, int and float (``numpy.float64`` is one), lists and tuples as arrays,
and str, int, float, bool or None as keys; any other type raises
TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")
_int_text = int.__repr__
_float_repr = float.__repr__


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return _float_repr(x)


def _other(o) -> str | None:
    """The text of a scalar whose type is a subclass; None for anything else."""
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        return _int_text(o)
    if isinstance(o, float):
        return _float_text(o)
    return None


# leaf writers by exact type; any other type goes to _other
_LEAF = {
    str: _string,
    int: _int_text,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}.get


def _key(k) -> str:
    """A key's text: a scalar's, quoted as a string if it is not one."""
    text = _LEAF(type(k), _other)(k)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return text if isinstance(k, str) else _string(text)


def _write(o, out: list[str], nl: str) -> None:
    """Append the text of the list, tuple or dict ``o``; ``nl`` is a newline
    and the indent of its level."""
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        texts = [_LEAF(type(v), _other)(v) for v in o]
        if None not in texts:
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        sep = "[" + inner
        for v, text in zip(o, texts):
            if text is None:
                out.append(sep)
                _write(v, out, inner)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        comma = "," + inner
        for k, v in sorted(o.items()):
            key = _string(k) if type(k) is str else _key(k)
            t = type(v)
            text = None if t is list or t is dict else _LEAF(t, _other)(v)
            if text is None:
                out.append(f"{sep}{key}: ")
                _write(v, out, inner)
            else:
                out.append(f"{sep}{key}: {text}")
            sep = comma
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """The text of ``obj`` as ``json.dumps`` writes it with ``indent=2`` and
    ``sort_keys=True``, byte for byte."""
    text = _LEAF(type(obj), _other)(obj)
    if text is not None:
        return text
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)
