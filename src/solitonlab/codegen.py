"""Straight-line float kernels generated from the package's own formulas.

A closed form written over a sequence of components (see ``systems``) runs
unchanged on ``Traced`` values: each + - * / and unary minus it performs is
appended to a ``Tape`` in evaluation order, as one assignment to a fresh
local.  The tape then becomes the body of a function that is compiled once
and called on floats.  Nothing is simplified.  An operation between two
constants is done by Python while tracing, exactly as the interpreted
closed form does it; every other operation is replayed as written, with the
same operands in the same order.  Each float operation rounds the same way
wherever it runs, so the compiled function returns the interpreted closed
form's values bit for bit.

Any other use of a traced value -- truth testing, comparison, ``abs``,
``float``, a power -- raises TypeError, so a closed form that branched on
its input fails while tracing instead of being frozen into one branch.

Generated sources are registered with ``linecache`` under a readable name
such as ``<solitonlab dp5 n=6>``, so tracebacks and ``inspect.getsource``
show the kernel's lines.
"""

from __future__ import annotations

import linecache
import math

__all__ = ["Tape", "Traced", "compile_function", "trace_function"]


class Tape:
    """The operations recorded while tracing, as lines of source, and the
    constants that have no literal (-0.0, inf, NaN, non-builtin numbers),
    bound by name in the generated function's globals."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace: dict = {}
        self._temps = 0

    def var(self, name: str) -> Traced:
        """A traced value held in the generated local ``name``."""
        return Traced(self, name)

    def ref(self, value) -> str:
        """Source text of a traced value or a constant."""
        if isinstance(value, Traced):
            return value.name
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            if value > 0 or (value == 0 and math.copysign(1.0, value) > 0):
                return repr(value)
            if value < 0:
                return f"({value!r})"
        name = f"_const{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def record(self, text: str) -> Traced:
        """Assign the expression ``text`` to a fresh local; its traced value."""
        self._temps += 1
        name = f"_{self._temps}"
        self.lines.append(f"{name} = {text}")
        return Traced(self, name)


def _binary(op: str, swap: bool = False):
    def method(self, other):
        if not isinstance(other, (Traced, int, float)):
            return NotImplemented
        left, right = (other, self) if swap else (self, other)
        return self.tape.record(f"{self.tape.ref(left)} {op} {self.tape.ref(right)}")

    return method


def _refuse(self, *args):
    raise TypeError(
        "a traced value supports only + - * / and unary minus; "
        "the traced formula branches on or converts its input"
    )


class Traced:
    """A value of a formula being traced: a local of the generated code."""

    __slots__ = ("tape", "name")
    # numpy scalars defer to the reflected methods below instead of
    # wrapping the traced value in an object array
    __array_ufunc__ = None

    def __init__(self, tape: Tape, name: str):
        self.tape = tape
        self.name = name

    __add__, __radd__ = _binary("+"), _binary("+", swap=True)
    __sub__, __rsub__ = _binary("-"), _binary("-", swap=True)
    __mul__, __rmul__ = _binary("*"), _binary("*", swap=True)
    __truediv__, __rtruediv__ = _binary("/"), _binary("/", swap=True)

    def __neg__(self):
        return self.tape.record(f"-{self.name}")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __float__ = __int__ = __index__ = __abs__ = __pow__ = __rpow__ = _refuse
    __hash__ = None


def compile_function(name: str, source: str, filename: str, namespace: dict):
    """Compile ``source``, the text of ``def name(...)``, with ``namespace``
    as its globals, register it with ``linecache`` under ``filename``, and
    return the function."""
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, **namespace}
    exec(code, namespace)
    return namespace[name]


def trace_function(formula, n: int, filename: str):
    """Trace ``formula(y)``, a function of a sequence of n components that
    returns a list, into a compiled ``fn(t, y)`` returning a list of the
    same values for a state y of n floats."""
    tape = Tape()
    y = [tape.var(f"y{j}") for j in range(n)]
    out = formula(y)
    body = [f"{', '.join(v.name for v in y)}, = y", *tape.lines]
    body.append(f"return [{', '.join(map(tape.ref, out))}]")
    source = "def fn(t, y):\n" + "".join(f"    {line}\n" for line in body)
    return compile_function("fn", source, filename, tape.namespace)
