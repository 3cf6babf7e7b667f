"""The census: the Hodge table of each of ROADMAP item 7's 169 sections
against its digest in ``tests/data/census.json``.

Outside tier-1 (the file name does not match ``test_*``), like
``bench/selftest.py``; run it with

    python -m pytest -q tests/census_check.py

A change that moves a census cell regenerates the digests in the same
change, with

    PYTHONPATH=src python tests/census_check.py --write

and lists the changed tables in CHANGES.md.
"""

import hashlib
import itertools
import json
import os
import sys

from bwb.catalog import default_catalog, projective_space
from bwb.hodge import hodge_table, section_spec

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "census.json")


def census_specs():
    """The 13 cominuscule catalog spaces of dimension <= 16 and P4..P8, cut
    by 1 to 4 hypersurfaces of degree 1 to 4 in multiples of L, keeping the
    Fano sections of odd dimension >= 3."""
    ambients = [s for s in default_catalog().spaces.values()
                if s.cominuscule and s.dim <= 16]
    ambients += [projective_space(n) for n in range(4, 9)]
    for space in ambients:
        for k in range(1, 5):
            for cuts in itertools.combinations_with_replacement(range(1, 5), k):
                spec = section_spec(space, cuts)
                if spec.dim >= 3 and spec.dim % 2 and min(spec.residual_index) > 0:
                    yield spec


def digest(table) -> str:
    """The first 16 hex digits of the SHA-256 of the table's [lo, hi] cells
    as JSON."""
    cells = [[[iv.lo, iv.hi] for iv in row] for row in table]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16]


def census() -> dict[str, str]:
    return {spec.describe(): digest(hodge_table(spec)) for spec in census_specs()}


def test_every_census_table_equals_its_digest():
    with open(DATA, encoding="utf-8") as fh:
        want = json.load(fh)
    got = census()
    assert len(got) == 169
    assert sorted(got) == sorted(want)
    assert [name for name in got if got[name] != want[name]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/census_check.py --write")
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(census(), fh, indent=1)
        fh.write("\n")
