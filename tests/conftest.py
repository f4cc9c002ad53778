import pytest

from cayley_spectra import (
    GroupSpec,
    build_group,
    conjugacy_classes,
    dixon_character_table,
)
from cayley_spectra.cli import _default_corpus

CORPUS = _default_corpus()
# the benchmark's table-ladder groups
LADDER = (
    "symmetric(7)",
    "product(cyclic(6),cyclic(6))",
    "cyclic(40)",
    "elementary-abelian(2,6)",
    "cyclic(60)",
)


def nonidentity_subsets(cd):
    """All 2^(k-1) subsets of non-identity class indices, bitmask order."""
    rest = range(1, cd.k)
    for mask in range(1 << (cd.k - 1)):
        yield tuple(j for i, j in enumerate(rest) if mask >> i & 1)


@pytest.fixture(scope="session")
def corpus():
    """spec string -> (group, class data, character table) for every corpus group."""
    out = {}
    for text in CORPUS:
        group = build_group(GroupSpec.from_json(text))
        cd = conjugacy_classes(group)
        out[text] = (group, cd, dixon_character_table(group, cd))
    return out
