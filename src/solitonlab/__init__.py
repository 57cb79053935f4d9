"""Numerical laboratory for cohomogeneity-one gradient Ricci soliton trajectories."""

from types import SimpleNamespace

__version__ = "0.1.0"


def _fmt(x: float) -> str:
    """17 significant digits: the one text form of a float in every output."""
    return f"{x:.17g}"


class Report(SimpleNamespace):
    """A diagnostic record, written to JSON as the object ``vars(report)``.

    A subclass annotates its fields; each is an attribute of every instance,
    None unless given.  Creating such a class costs no generated methods:
    ``repr`` and ``==`` are the namespace's, over the fields.
    """

    def __init__(self, **fields):
        super().__init__(**dict.fromkeys(self.__annotations__) | fields)
