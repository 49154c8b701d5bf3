"""The library computes exactly: no floating point, no randomized search.

The only randomness allowed is the seeded ``random.Random`` sampler that
picks the gap-suite uniserial pairs in ``vanishing.py``.
"""

import re
from pathlib import Path

import quiverhom

SOURCES = sorted(Path(quiverhom.__file__).parent.glob("*.py"))
FORBIDDEN = ("np.random", "default_rng", "import math", "float(", "itertools")


def test_library_has_no_inexact_or_randomized_code():
    assert SOURCES
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for token in FORBIDDEN:
            assert token not in text, f"{path.name} contains {token!r}"
        uses = set(re.findall(r"\brandom\.\w+", text))
        if path.name == "vanishing.py":
            assert uses == {"random.Random"}, uses
        else:
            assert not uses and "import random" not in text, f"{path.name} uses random"
