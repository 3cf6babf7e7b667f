"""Exact sheaf cohomology on homogeneous spaces (Borel-Weil-Bott, Kostant's
form-bundle decomposition) and the Hodge-theoretic invariants of their
complete intersections and double covers, with a verification CLI that diffs
every computed table against stored reference values."""

from .bott import Bundle, bott, euler_char, forms_cohomology, kostant_forms
from .catalog import HomogSpace, default_catalog, load_catalog, projective_space, space_facts
from .hodge import (
    HodgeRow,
    ModuliReport,
    SectionSpec,
    ci_moduli,
    closed_form_hcc1,
    cy_type_verdict,
    deformation_moduli,
    double_cover_hodge,
    dual_correspondence,
    lemma_van_scan,
    linear_section,
    section_hodge,
    section_spec,
)
from .jacring import jacobian_hilbert, steenbrink_hodge, weighted_cy_scan
from .rootsys import RootSystem, root_system, to_dominant, weyl_dim

__version__ = "0.1.0"
