"""Catalog of marked homogeneous spaces and the stored reference tables.

A space is a product of factors G/P with exactly one marked node per simple
factor.  Everything geometric (dimension, Fano index, minimal-embedding
dimension, automorphism-group dimension, cominusculity) is recomputed from the
root system; the JSON file also carries reference tables of expected values
("fixtures") that the verification suite diffs against, including a small set
of documented discrepancies that are reported but do not count as failures.

The default catalog ships with the package; the ``BWB_CATALOG`` environment
variable (or an explicit path) overrides it.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from functools import cached_property
from math import gcd

from .rootsys import _immutable, _integer, root_system, weyl_dim


class Factor(namedtuple("Factor", "rs node")):
    """One simple factor, the root system ``rs``, with a single marked node
    (0-indexed).  Equal factors share ``(series, rank, node)``, so the hash
    is that triple's, computed once per factor; the series letter enters as
    its code point, so the cached hash does not depend on string-hash
    randomization and stays right in a pickle read by another process."""

    __setattr__ = __delattr__ = _immutable

    @cached_property
    def _hash(self) -> int:
        return hash((ord(self.rs.series), self.rs.rank, self.node))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def u_root_indices(self) -> tuple[int, ...]:
        """Positive roots with nonzero coefficient at the marked node: the
        weights of the nilradical, i.e. the tangent directions."""
        return tuple(
            i
            for i, alpha in enumerate(self.rs.positive_roots)
            if alpha[self.node] != 0
        )

    @cached_property
    def dim(self) -> int:
        return len(self.u_root_indices)

    @cached_property
    def index(self) -> int:
        """Fano index: the sum of the nilradical roots is index * omega."""
        total = [0] * self.rs.rank
        for i in self.u_root_indices:
            for j, c in enumerate(self.rs.root_coords[i]):
                total[j] += c
        for j, c in enumerate(total):
            if j != self.node and c != 0:
                raise AssertionError("nilradical roots must sum to a multiple of omega")
        return total[self.node]

    @cached_property
    def cominuscule(self) -> bool:
        return self.rs.highest_root[self.node] == 1

    @property
    def adjoint_dim(self) -> int:
        return self.rs.rank + 2 * self.rs.num_positive

    @cached_property
    def unmarked(self) -> frozenset[int]:
        return frozenset(j for j in range(self.rs.rank) if j != self.node)

    def omega(self, mult: int = 1) -> tuple[int, ...]:
        return tuple(mult if j == self.node else 0 for j in range(self.rs.rank))

    def describe(self) -> str:
        return f"{self.rs.series}{self.rs.rank}/P{self.node + 1}"


class HomogSpace(namedtuple("HomogSpace", "name factors")):
    """A product of marked ``factors``.  Equal spaces share a name, so the
    hash is the name's, which the string caches: a cache lookup keyed on a
    space hashes no factor."""

    __setattr__ = __delattr__ = _immutable

    def __hash__(self) -> int:
        return hash(self.name)

    @cached_property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @cached_property
    def index_vector(self) -> tuple[int, ...]:
        return tuple(f.index for f in self.factors)

    @cached_property
    def picard_index(self) -> int:
        """Fano index with respect to the primitive ample class L."""
        g = 0
        for r in self.index_vector:
            g = gcd(g, r)
        return g

    @cached_property
    def ample(self) -> tuple[int, ...]:
        """Per-factor degree vector of L (so -K = picard_index * L)."""
        i = self.picard_index
        return tuple(r // i for r in self.index_vector)

    def degree_vector(self, k) -> tuple[int, ...]:
        """Per-factor degrees of O(k), and the one integer gate for twists
        and degrees: anything ``operator.index`` takes counts copies of L, a
        tuple or list gives one integer degree per factor, and anything else
        raises ValueError."""
        if isinstance(k, (tuple, list)):
            vec = tuple([_integer(c, "degree") for c in k])
            if len(vec) != len(self.factors):
                raise ValueError(f"need one twist per factor of {self.name}, got {vec}")
            return vec
        k = _integer(k, "degree")
        return tuple([k * a for a in self.ample])

    @property
    def coindex(self) -> int:
        return self.dim - self.picard_index

    @cached_property
    def n_plus_one(self) -> int:
        """Dimension of the minimal homogeneous embedding space H^0(L)*."""
        out = 1
        for f, a in zip(self.factors, self.ample):
            out *= weyl_dim(f.rs, f.omega(a))
        return out

    @property
    def delta(self) -> int:
        """Dimension of the automorphism group (adjoint form)."""
        return sum(f.adjoint_dim for f in self.factors)

    @cached_property
    def cominuscule(self) -> bool:
        return all(f.cominuscule for f in self.factors)

    def __repr__(self) -> str:
        return f"HomogSpace({self.name})"


def space_facts(space: HomogSpace) -> dict:
    """Geometry facts recomputed from the root data, keyed like the reference
    table columns.  ``s`` is the linear-section codimension that lands on an
    odd-dimensional variety with one-dimensional extreme middle Hodge piece:
    dim - 2*coindex + 1."""
    return {
        "dim": space.dim,
        "index": space.picard_index,
        "coindex": space.coindex,
        "N": space.n_plus_one - 1,
        "delta": space.delta,
        "s": space.dim - 2 * space.coindex + 1,
    }


def projective_space(n: int) -> HomogSpace:
    """P^n as a marked space (type A, first node); not part of the catalog
    but needed as a double-cover base and complete-intersection ambient."""
    n = _integer(n, "projective dimension")
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    return HomogSpace(name=f"P{n}", factors=(Factor(rs=root_system("A", n), node=0),))


class Catalog(namedtuple("Catalog", "spaces fixtures tables discrepancies path")):
    """The spaces by name, their fixtures, the reference tables, the
    documented discrepancies, and the path they were read from."""

    __slots__ = ()

    def space(self, name: str) -> HomogSpace:
        try:
            return self.spaces[name]
        except KeyError:
            known = ", ".join(sorted(self.spaces))
            raise KeyError(f"unknown space {name!r}; catalog has: {known}") from None

    def table(self, name: str) -> dict:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"catalog {self.path} has no table {name!r}") from None

    def fixture(self, name: str, table: str) -> dict:
        """The space's stored values for the table; {} when none are."""
        return self.fixtures.get(name, {}).get(table, {})

    def is_documented_discrepancy(self, table: str, row: str, column: str,
                                  computed) -> bool:
        """True when the cell is listed with exactly this computed value; a
        drifted value is an undocumented mismatch."""
        return any(
            d["table"] == table and d["row"] == row and d["column"] == column
            and d["computed"] == computed
            for d in self.discrepancies
        )


_DEFAULT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "data", "catalog.json")


def load_catalog(path: str | None = None) -> Catalog:
    path = path or os.environ.get("BWB_CATALOG") or _DEFAULT_PATH
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("schema_version") != 1:
        raise ValueError(f"unsupported catalog schema: {raw.get('schema_version')}")
    spaces = {}
    fixtures = {}
    for entry in raw["spaces"]:
        name = entry["name"]
        if "factors" not in entry:
            raise ValueError(f"space {name} has no 'factors'")
        factors = []
        for f in entry["factors"]:
            try:
                series, rank, node = f["series"], f["rank"], f["node"]
            except KeyError as exc:
                raise ValueError(f"a factor of {name} has no {exc.args[0]!r}") from None
            if not isinstance(series, str):
                raise ValueError(f"space {name}: unknown series {series!r}")
            rank = _integer(rank, f"rank of {name}")
            node = _integer(node, f"node of {name}")
            if not 1 <= node <= rank:
                raise ValueError(f"node {node} of {name} is outside 1..{rank}")
            try:
                rs = root_system(series, rank)
            except ValueError as exc:
                raise ValueError(f"space {name}: {exc}") from None
            factors.append(Factor(rs=rs, node=node - 1))
        spaces[name] = HomogSpace(name=name, factors=tuple(factors))
        fixtures[name] = entry.get("fixtures", {})
    return Catalog(
        spaces=spaces,
        fixtures=fixtures,
        tables=raw.get("tables", {}),
        discrepancies=raw.get("documented_discrepancies", []),
        path=path,
    )


_CATALOG = None


def default_catalog() -> Catalog:
    """Process-wide catalog instance (respects BWB_CATALOG at first use)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = load_catalog()
    return _CATALOG
