"""The records: immutable named tuples with the constructors, equality and
hashing the rest of bwb relies on, and an import path that loads none of the
dataclass machinery."""

import os
import pickle
import subprocess
import sys

import pytest

from bwb.bott import Bundle, CohomologyTable, bott
from bwb.catalog import Catalog, Factor, HomogSpace, projective_space
from bwb.chase import Iv, exact
from bwb.hodge import (
    CYTypeReport,
    DualReport,
    HodgeRow,
    ModuliReport,
    SectionSpec,
)
from bwb.jacring import WeightedHodgeRow
from bwb.report import ReportCell, VerifyReport
from bwb.rootsys import DominanceWalk, RootSystem, root_system

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_path_loads_no_dataclass_machinery():
    # a fresh interpreter without site, because pytest itself imports these
    code = ("import sys; sys.path[:0] = [sys.argv[1]]; "
            "import bwb, bwb.cli, bwb.report; cat = bwb.load_catalog(); "
            "print(cat.path); print(sorted(m for m in ('dataclasses', 'inspect', "
            "'importlib.resources') if m in sys.modules))")
    env = {k: v for k, v in os.environ.items() if k != "BWB_CATALOG"}
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC],
                         capture_output=True, check=True, text=True, env=env)
    path, loaded = out.stdout.splitlines()
    assert path == os.path.join(SRC, "bwb", "data", "catalog.json")
    assert loaded == "[]"


def test_record_contracts():
    rs = root_system("A", 2)
    p2 = projective_space(2)
    spec = SectionSpec(p2, ((1,),))
    moduli = ModuliReport(3, "route", (("h0", 3),))
    # each record's fields in constructor order, with one value per field
    records = {
        Iv: {"lo": 1, "hi": 2},
        DominanceWalk: {"dominant": (1, 1), "length": 0, "singular": False,
                        "pivots": ()},
        RootSystem: dict(zip(rs._fields, rs)),
        Factor: {"rs": rs, "node": 0},
        HomogSpace: {"name": "P2", "factors": (Factor(rs, 0),)},
        Catalog: {"spaces": {"P2": p2}, "fixtures": {}, "tables": {},
                  "discrepancies": [], "path": "catalog.json"},
        Bundle: {"space": p2, "weights": ((0, 0),)},
        CohomologyTable: {"group": (0, ((0, 0),), 1)},
        SectionSpec: {"ambient": p2, "cut_degrees": ((1,),), "branch_degree": None},
        HodgeRow: {"spec": spec, "table": ((exact(1),),)},
        ModuliReport: {"value": 3, "route": "route", "inputs": (("h0", 3),)},
        DualReport: {"space": "S10", "description": "quintic threefold",
                     "dual_dim": 3, "x_moduli": moduli, "dual_moduli": moduli,
                     "agree": True, "j_dim": 4},
        CYTypeReport: {"clauses": (("extreme-piece", "pass", "ok"),),
                       "verdict": "cy-type"},
        WeightedHodgeRow: {"weights": (1, 1, 1, 1, 1), "degree": 5, "dim": 3,
                           "entries": (1, 101, 101, 1), "moduli": 101},
        ReportCell: {"table": "t", "row": "r", "column": "c", "fixture": 1,
                     "computed": 1, "status": "match", "note": ""},
        VerifyReport: {"cells": (), "undocumented": (), "documented": ()},
    }
    for cls, values in records.items():
        assert cls._fields == tuple(values), cls
        by_position = cls(*values.values())
        by_keyword = cls(**values)
        assert by_position == by_keyword, cls
        for name, value in values.items():
            assert getattr(by_keyword, name) is value, (cls, name)
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, value)
        copy = pickle.loads(pickle.dumps(by_keyword))
        assert copy is not by_keyword and copy == by_keyword, cls
        if cls is not Catalog:  # the catalog holds dicts
            assert hash(copy) == hash(by_keyword), cls
    # the records that cache properties refuse every assignment, not only fields
    for record in (rs, p2.factors[0], p2):
        with pytest.raises(AttributeError):
            record.dim = 0
        with pytest.raises(AttributeError):
            del record._hash
    assert SectionSpec(p2) == (p2, (), None)
    # bott's one record: acyclic by default, and no attribute to set
    assert CohomologyTable().acyclic and CohomologyTable().dims() == {}
    table = bott(Bundle(p2, ((0, 0),)))
    assert table == CohomologyTable((0, ((0, 0),), 1)) and table.dims() == {0: 1}
    for name in ("group", "other"):
        with pytest.raises(AttributeError):
            setattr(table, name, 5)
    assert ReportCell("t", "r", "c", 1, 1, "match").note == ""
    assert ReportCell._fields == ("table", "row", "column", "fixture",
                                  "computed", "status", "note")
    # a root system compares by (series, rank) alone, in == and in !=
    other = rs._replace(dim_den=0)
    assert other == rs and not other != rs and hash(other) == hash(rs)
    assert root_system("B", 3) != root_system("C", 3)
    # no interval product in either order; a tuple base would repeat it
    with pytest.raises(TypeError):
        2 * Iv(1, 2)
    with pytest.raises(TypeError):
        Iv(1, 2) * 2
    with pytest.raises(TypeError):
        Iv(1, 2) * Iv(1, 2)
