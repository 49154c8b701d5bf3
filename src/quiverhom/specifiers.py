"""The module specifier mini-language used by the CLI.

Grammar (exact, whitespace forbidden):

    spec := "simple:" vertex
          | "projective:" vertex
          | "uniserial:" vertex ":" length
          | "syzygy:" k ":" spec
"""

from __future__ import annotations

from .algebra import BoundQuiverAlgebra
from .homology import minimal_resolution
from .modules import QuiverModule, projective, simple, uniserial

GRAMMAR = "simple:i | projective:i | uniserial:i:l | syzygy:k:<spec>"


class SpecifierError(ValueError):
    def __init__(self, text: str, reason: str):
        super().__init__(f"bad module specifier {text!r}: {reason}; grammar is {GRAMMAR}")


def _int_field(text: str, value: str, what: str) -> int:
    if not value or not value.isdigit():
        raise SpecifierError(text, f"{what} must be a positive integer, got {value!r}")
    return int(value)


def parse_module_spec(algebra: BoundQuiverAlgebra, text: str) -> QuiverModule:
    """Resolve a specifier string to a concrete module over the given algebra."""
    if any(c.isspace() for c in text):
        raise SpecifierError(text, "whitespace is forbidden")
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecifierError(text, "missing ':'")
    try:
        if head == "simple":
            return simple(algebra, _int_field(text, rest, "vertex"))
        if head == "projective":
            return projective(algebra, _int_field(text, rest, "vertex"))
        if head == "uniserial":
            i_str, sep2, l_str = rest.partition(":")
            if not sep2:
                raise SpecifierError(text, "uniserial needs vertex and length")
            return uniserial(
                algebra, _int_field(text, i_str, "vertex"), _int_field(text, l_str, "length")
            )
        if head == "syzygy":
            k_str, sep2, inner = rest.partition(":")
            if not sep2:
                raise SpecifierError(text, "syzygy needs a count and an inner specifier")
            k = _int_field(text, k_str, "syzygy count")
            base = parse_module_spec(algebra, inner)
            syz = minimal_resolution(base, k).syzygy(k)
            return QuiverModule(algebra, syz.dims, syz.arrow_maps, name=text, check=False)
    except SpecifierError:
        raise
    except ValueError as e:
        raise SpecifierError(text, str(e)) from e
    raise SpecifierError(text, f"unknown kind {head!r}")
