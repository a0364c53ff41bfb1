"""Exact computational algebra for quadratic-form K-theory.

Subpackages cover integer normal forms and presented abelian groups
(``exact_linear``), the base fields and their symbols (``fields``),
square-class group rings (``group_ring``), Witt rings (``witt``),
Milnor-Witt K-groups (``milnor_witt``), scissors-congruence
presentations (``scissors``), and the assembled homology reports
(``reports``).  The most used names are re-exported here; everything
else is importable from its submodule.
"""

from .descriptor import GroupDescriptor, Provenance, SymbolicFactor
from .errors import KmwError
from .exact_linear import (
    AbGroupInfo,
    AbMap,
    IntMatrix,
    fp_cokernel,
    fp_kernel,
    odd_part,
    snf,
)
from .fields import (
    finite_field,
    function_field,
    hilbert,
    rationals,
    square_class,
    tame_symbol,
    valuation,
)
from .group_ring import gr_int, gr_unit, pfister_form
from .milnor_witt import (
    eta_mul,
    format_mw,
    h_elem,
    mw_delta,
    mw_descriptor,
    mw_equal,
    mw_is_zero,
    mw_mul,
    mw_symbol,
    parse_mw,
)
from .reports import (
    h2_laurent_report,
    h3_laurent_report,
    stabilization_report,
    verify_descriptor,
)
from .scissors import (
    derived_groups,
    pb_group,
    pb_half,
    refined_five_term,
    sv_apply,
)
from .witt import (
    in_i_power,
    signature,
    witt_group_structure,
    witt_is_zero,
)

__version__ = "0.1.0"

__all__ = [
    "AbGroupInfo",
    "AbMap",
    "GroupDescriptor",
    "IntMatrix",
    "KmwError",
    "Provenance",
    "SymbolicFactor",
    "derived_groups",
    "eta_mul",
    "finite_field",
    "format_mw",
    "fp_cokernel",
    "fp_kernel",
    "function_field",
    "gr_int",
    "gr_unit",
    "h2_laurent_report",
    "h3_laurent_report",
    "h_elem",
    "hilbert",
    "in_i_power",
    "mw_delta",
    "mw_descriptor",
    "mw_equal",
    "mw_is_zero",
    "mw_mul",
    "mw_symbol",
    "odd_part",
    "parse_mw",
    "pb_group",
    "pb_half",
    "pfister_form",
    "rationals",
    "refined_five_term",
    "signature",
    "snf",
    "square_class",
    "stabilization_report",
    "sv_apply",
    "tame_symbol",
    "valuation",
    "verify_descriptor",
    "witt_group_structure",
    "witt_is_zero",
]
