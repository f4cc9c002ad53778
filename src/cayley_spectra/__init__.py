"""Exact spectra of normal Cayley digraphs.

Build a finite group, pick a connection set that is a union of conjugacy
classes, and read the digraph's eigenvalues straight off the character
table as exact cyclotomic numbers.  The package also decides when the
spectrum is integral, rational, or contained in a chosen subfield of a
cyclotomic field, and cross-checks everything against brute-force oracles.
"""

from .characters import (
    CharacterTable,
    ClassMatrices,
    InducedCharacter,
    character_multiplicities,
    check_table_size,
    class_matrices,
    dixon_character_table,
    induced_character_from_cyclic,
    table_coefficients,
    verify_galois_character_identity,
    verify_orthogonality,
)
from .cyclotomic import (
    CycContext,
    CycInt,
    as_rational,
    conjugate,
    cyclotomic_polynomial,
    divide_exact,
    embed,
    galois_apply,
    get_context,
    is_fixed_by,
    reduce_raw,
    totient,
)
from .errors import InternalConsistencyError, ResourceLimitError
from .galois import (
    GaloisConjugacyClasses,
    GaloisSubgroup,
    all_subgroups,
    check_power_closure_consistency,
    cyclic_subgroups,
    galois_conjugacy_classes,
    is_power_closed,
    is_union_of_galois_classes,
    power_closure,
    subgroup_closure,
    unit_group,
)
from .group_core import (
    DEFAULT_GROUP_CAP,
    TABLE_BYTE_BUDGET,
    ClassData,
    Group,
    GroupSpec,
    build_group,
    conjugacy_classes,
    element_order,
    exponent,
    parse_permutation,
    power_of,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    ExactSpectrumReport,
    SpectrumComparison,
    adjacency_matrix,
    adjacency_stack,
    batch_compare_spectra,
    batch_power_closed,
    batch_verify_spectrum_exact,
    compare_spectra,
    integer_charpoly,
    oracle_power_closed,
    oracle_spectrum,
    verify_spectrum_exact,
)
from .spectra import (
    ClassSweep,
    ConnectionSet,
    EigenValue,
    IntegralityReport,
    MembershipReport,
    PowerConjugationCounts,
    Spectrum,
    SpectrumEntry,
    all_eigenvalues_in_subfield,
    all_eigenvalues_integral,
    check_coefficient_symmetry,
    check_integrality,
    check_membership,
    check_sweep_size,
    class_sweep,
    eigenvalues_via_characters,
    make_connection_set,
    power_conjugation_counts,
    sweep_class_closed,
    sweep_in_subfield,
    sweep_power_closed,
    sweep_spectrum,
    sweep_unit_closed,
    sweep_unit_fixed,
)

__version__ = "0.1.0"
