"""``mpradon.jsontext.dumps`` against the running Python's ``json`` module.

The writer must give the bytes of ``json.dumps(obj, indent=2,
sort_keys=True)`` on every Python the package supports, so this oracle
needs only the standard library.  ``tests/test_jsontext.py`` runs it under
pytest; run it alone, on an interpreter without the test extras, as

    PYTHONPATH=src python tests/jsontext_oracle.py

It writes seeded random trees (nested dicts, lists and tuples, empty
containers, escapes, non-ASCII and astral characters, big ints, signed
zeros, nan and infinities, bools, None, int/float/str subclasses) and a few
fixed cases, and checks that types JSON has no form for raise TypeError.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from mpradon.jsontext import dumps


# subclasses whose own text differs from their value's, as numpy.float64's does
class Int(int):
    def __repr__(self):
        return f"Int({int(self)})"

    __str__ = __repr__


class Float(float):
    def __repr__(self):
        return f"Float({float(self)})"

    __str__ = __repr__


class Str(str):
    def __repr__(self):
        return f"Str({str.__repr__(self)})"


_CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u00df", "\u00a0", "\u2028"]
_CHARS += ["\ud800", "\U0001f600", "a", "Z", "0", " "]
_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300, 5e-324, 1.7976931348623157e308]
_FLOATS += [float("nan"), float("inf"), float("-inf")]
_INTS = [0, -1, 7, 2**63, -(2**64) - 1, 10**80]
_SCALARS = (None, True, False)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def random_leaf(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:
        return rng.choice(_INTS + [rng.randint(-(10**30), 10**30)])
    if kind == 2:
        return rng.choice(_FLOATS + [rng.uniform(-1e6, 1e6)])
    if kind == 3:
        return Int(rng.choice(_INTS))
    if kind == 4:
        return Float(rng.choice(_FLOATS))
    if kind == 5:
        return Str(random_text(rng))
    return random_text(rng)


def random_tree(rng: random.Random, depth: int = 0):
    """A JSON-shaped tree of at most four levels; keys are strings."""
    kind = rng.randrange(4) if depth < 4 else 3
    if kind == 0:
        return {random_text(rng): random_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if kind == 1:
        return [random_tree(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return tuple(random_tree(rng, depth + 1) for _ in range(rng.randint(0, 3)))
    return random_leaf(rng)


# keys of one type each, which json converts to strings (a mixed set does not sort)
FIXED = [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": ()},
    {3: "x", -1: "y", 10**20: "z"},
    {2.5: 1, -0.0: 2, float("inf"): 3},
    {True: 1, False: 0},
    {None: [None]},
    {Int(2): 1, Int(1): 2},
    [[[[]]], [{}], [{"": ""}]],
    "\U0001f600",
    Float("nan"),
]

NOT_JSON = [Fraction(1, 3), {1, 2}, [Fraction(1)], {"k": {1}}, {"k": [complex(1, 2)]}, {(1,): 2}]


def check(obj) -> None:
    """Raise AssertionError unless the writer gives json's text for obj."""
    expected = json.dumps(obj, indent=2, sort_keys=True)
    got = dumps(obj)
    assert got == expected, f"{obj!r}:\n{got}\n!=\n{expected}"


def check_rejects(obj) -> None:
    try:
        dumps(obj)
    except TypeError:
        return
    raise AssertionError(f"{obj!r} was written, not rejected")


def run(trees: int = 2000, seed: int = 0) -> None:
    rng = random.Random(seed)
    for obj in FIXED:
        check(obj)
    for _ in range(trees):
        check(random_tree(rng))
    for obj in NOT_JSON:
        check_rejects(obj)


if __name__ == "__main__":
    run()
    print(f"jsontext matches json.dumps on Python {sys.version.split()[0]}")
