"""The module specifier mini-language used by the CLI.

Grammar (exact, whitespace forbidden; vertex, length and k are ASCII digits):

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
MAX_DEGREE = 10000  # ceiling for --max-degree and for the sum of a specifier's syzygy counts


class SpecifierError(ValueError):
    def __init__(self, text: str, reason: str):
        super().__init__(f"bad module specifier {text!r}: {reason}; grammar is {GRAMMAR}")


def _int_field(text: str, value: str, what: str) -> int:
    if not (value.isascii() and value.isdigit()):  # str.isdigit alone takes any Unicode digit
        raise SpecifierError(text, f"{what} must be a non-negative integer in ASCII digits, got {value!r}")
    return int(value)


def parse_module_spec(algebra: BoundQuiverAlgebra, text: str) -> QuiverModule:
    """Resolve a specifier string to a concrete module over the given algebra.

    Nested syzygy prefixes compose: syzygy:a:syzygy:b:<spec> is the
    (a+b)-th syzygy of <spec>.  Their counts may sum to at most
    MAX_DEGREE; a larger sum is rejected before anything is resolved.
    """
    if any(c.isspace() for c in text):
        raise SpecifierError(text, "whitespace is forbidden")
    spec, count = text, 0
    try:
        while spec.startswith("syzygy:"):
            k_str, sep, inner = spec.removeprefix("syzygy:").partition(":")
            if not sep:
                raise SpecifierError(spec, "syzygy needs a count and an inner specifier")
            count += _int_field(spec, k_str, "syzygy count")
            if count > MAX_DEGREE:
                raise SpecifierError(text, f"syzygy counts sum to more than {MAX_DEGREE}")
            spec = inner
        head, sep, rest = spec.partition(":")
        if not sep:
            raise SpecifierError(spec, "missing ':'")
        if head == "simple":
            base = simple(algebra, _int_field(spec, rest, "vertex"))
        elif head == "projective":
            base = projective(algebra, _int_field(spec, rest, "vertex"))
        elif head == "uniserial":
            i_str, sep2, l_str = rest.partition(":")
            if not sep2:
                raise SpecifierError(spec, "uniserial needs vertex and length")
            base = uniserial(
                algebra, _int_field(spec, i_str, "vertex"), _int_field(spec, l_str, "length")
            )
        else:
            raise SpecifierError(spec, f"unknown kind {head!r}")
    except SpecifierError:
        raise
    except ValueError as e:
        raise SpecifierError(spec, str(e)) from e
    if spec == text:
        return base
    syz = minimal_resolution(base, count).syzygy(count)
    return QuiverModule(algebra, syz.dims, syz.arrow_maps, name=text, check=False)
