"""Cayley, Cayley sum and mirror di-Cayley graph spectra over finite
groups and finite commutative rings, with executable verification of
the product-decomposition, parity and isospectrality results."""

from .algebra import (
    FiniteGroup,
    GroupError,
    GroupSubset,
    conjugate_characters,
    character_sums_over,
    cogeneration_gap,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    gcd_class,
    is_normal,
    make_group,
    subset,
    symmetric,
)
from .finring import (
    FiniteRing,
    LocalRing,
    RingError,
    additive_group,
    artin_product,
    field_quotient,
    galois_ring,
    gf,
    parse_ring,
    power_residues,
    units,
    zpk,
)
from .graphs import (
    Graph,
    GraphError,
    cayley,
    mirror_dicayley,
    structure_report,
)
from .products import named_product, path2
from .spectra import (
    Spectrum,
    SpectrumClass,
    SpectrumError,
    classify,
    isospectral,
    local_ring_unitary_spectrum,
    mdcg_local_ring_spectrum,
    mdcg_spectrum_formula,
    spectrum_dense_symmetric,
    spectrum_exact_abelian,
)
from .theorems import (
    HypothesisError,
    VerificationReport,
    build_even_odd_pair,
    check_cayley_structure,
    check_crossed_nonisospectrality,
    check_gen_isosp,
    check_integrality_criteria,
    check_isosp_transfer,
    check_parity_and_symmetry,
    check_product_decompositions,
    check_spectrum_formulas,
    iterated_pairs,
    run_suite,
    spectrum_of,
)

__version__ = "0.1.0"
