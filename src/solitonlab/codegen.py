"""Straight-line float kernels generated from the package's own formulas.

A closed form written over a sequence of components (see ``systems``) runs
unchanged on ``Traced`` values: each + - * / and unary minus it performs is
appended to a ``Tape`` in evaluation order, as one assignment to a fresh
local.  The tape then becomes the body of a function that is compiled once
and called on floats.  An operation between two constants is done by Python
while tracing, exactly as the interpreted closed form does it; every other
operation is replayed with the same operands in the same order, except for
three reductions that keep every value's bits: an operation recorded again
with the same operands reuses the first one's local (IEEE operations are
deterministic, and if the first raises the second is never reached);
``x * 1``, ``1 * x``, ``x / 1`` and ``x - 0.0`` are x itself, for +-0,
+-inf and NaN too; and an int operand is written as the float it converts
to (exactly, below 2**53), which lets CPython specialize the operation.
``x + 0.0`` stays (it turns -0.0 into +0.0), and so does ``0.0 * x`` (NaN
for infinite x, -0.0 for negative x).  So the compiled function returns
the interpreted closed form's values bit for bit.

Any other use of a traced value -- truth testing, comparison, ``abs``,
``float``, a power -- raises TypeError, so a closed form that branched on
its input fails while tracing instead of being frozen into one branch.

``extremum`` writes a min or max over expressions as straight-line code
that compares the candidates in the order the builtin does.

``traced`` gives the ``Trace`` of a function ``trace_function`` compiled,
by the identity of the function object, so the integrator can inline the
body.  Generated sources are registered with ``linecache`` under a
readable name such as ``<solitonlab dp5 n=6>``, so tracebacks and
``inspect.getsource`` show the kernel's lines.
"""

from __future__ import annotations

import linecache
import math
import time
import weakref
from dataclasses import dataclass

__all__ = [
    "Tape", "Trace", "Traced", "compile_function", "extremum", "trace_function", "traced",
]


class Tape:
    """The operations recorded while tracing, as lines of source, and the
    constants that have no literal (-0.0, inf, NaN, non-builtin numbers),
    bound by name in the generated function's globals."""

    def __init__(self):
        self.lines: list[str] = []
        self.namespace: dict = {}
        self._records: dict[str, Traced] = {}  # expression -> its local

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
        """The traced value of the expression ``text``: a fresh local, or
        the one an identical earlier record assigned."""
        value = self._records.get(text)
        if value is None:
            name = f"_{len(self._records) + 1}"
            self.lines.append(f"{name} = {text}")
            value = self._records[text] = Traced(self, name)
        return value


# (op, repr of a right operand) that give the left operand bit for bit:
# x * 1, x / 1 and x - 0.0, but not x - -0.0, which is x + 0.0
_RIGHT_IDENTITIES = {("*", "1.0"), ("/", "1.0"), ("-", "0.0")}


def _binary(op: str, swap: bool = False):
    def method(self, other):
        if not isinstance(other, (Traced, int, float)):
            return NotImplemented
        if type(other) is int and abs(other) <= 2**53:
            other = float(other)  # the conversion the float operation makes
        left, right = (other, self) if swap else (self, other)
        if type(right) is float and (op, repr(right)) in _RIGHT_IDENTITIES:
            return left
        if type(left) is float and left == 1.0 and op == "*":
            return right
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


# kernels compile_function made in this process and the seconds it took;
# only ever increased, so a caller reads the work of a span as a difference
COUNTERS = {"kernel_compiles": 0, "kernel_compile_s": 0.0}


def compile_function(name: str, source: str, filename: str, namespace: dict):
    """Compile ``source``, the text of ``def name(...)``, with ``namespace``
    as its globals, register it with ``linecache`` under ``filename``, and
    return the function.  Counted in ``COUNTERS``."""
    start = time.perf_counter()
    code = compile(source, filename, "exec")
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"__name__": __name__, **namespace}
    exec(code, namespace)
    COUNTERS["kernel_compiles"] += 1
    COUNTERS["kernel_compile_s"] += time.perf_counter() - start
    return namespace[name]


def extremum(name: str, candidates, op: str = "<") -> list[str]:
    """Lines of source that set ``name`` to the min (``op`` "<") or the max
    (">") of the candidate expressions as the builtin takes it: the first
    candidate, replaced by each later one that is strictly smaller (larger).
    A tie keeps the earlier candidate, which fixes the sign of a zero, and a
    NaN stays only as the first candidate, as with the builtin.  Each later
    candidate is evaluated once, in order: a local is compared as it is, any
    other expression is first assigned to the local ``c``."""
    first, *rest = candidates
    lines = [f"{name} = {first}"]
    for c in rest:
        if not c.isidentifier():
            lines.append(f"c = {c}")
            c = "c"
        lines += [f"if {c} {op} {name}:", f"    {name} = {c}"]
    return lines


@dataclass(frozen=True, eq=False)
class Trace:
    """A traced formula: the names of its n inputs, the recorded lines that
    compute from them, the source text of each output and the constants the
    lines bind by name."""

    filename: str
    inputs: tuple[str, ...]
    lines: tuple[str, ...]
    outputs: tuple[str, ...]
    namespace: dict


# id of each live function trace_function compiled -> its Trace; an entry
# goes when its function is collected, before the id can be reused
_TRACES: dict[int, Trace] = {}


def traced(fn) -> Trace | None:
    """The Trace ``fn`` was compiled from, if ``trace_function`` returned
    this very object; a wrapper around it, even one that copies its
    attributes, has none."""
    return _TRACES.get(id(fn))


def trace_function(formula, n: int, filename: str):
    """Trace ``formula(y)``, a function of a sequence of n components that
    returns a list, into a compiled ``fn(t, y)`` returning a list of the
    same values for a state y of n floats."""
    tape = Tape()
    y = [tape.var(f"y{j}") for j in range(n)]
    out = [tape.ref(v) for v in formula(y)]
    trace = Trace(filename, tuple(v.name for v in y), tuple(tape.lines), tuple(out), tape.namespace)
    body = [f"{', '.join(trace.inputs)}, = y", *trace.lines, f"return [{', '.join(out)}]"]
    source = "def fn(t, y):\n" + "".join(f"    {line}\n" for line in body)
    fn = compile_function("fn", source, filename, tape.namespace)
    _TRACES[id(fn)] = trace
    weakref.finalize(fn, _TRACES.pop, id(fn), None)
    return fn
