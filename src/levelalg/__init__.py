"""levelalg: exact computations with apolarity and Artin level algebras.

Subspaces of binary forms, their Hilbert functions and annihilators, the
level strata of the Grassmannian with their tangent spaces and witness
ideals, secant-plane geometry and Waring loci, and the Schubert-calculus
side: LR products, Porteous classes, Bott cohomology, Kronecker
coefficients and resolution term ranks.  Everything is exact rational or
integer arithmetic.
"""

from .apolarity import (
    ApolarProfile,
    GradedIdealSlice,
    ann_slice,
    apolar_profile,
    catalecticant_matrix,
    hilbert_function,
    internal_product,
    inverse_system_slice,
    jordan_apolar_basis,
    minimal_generators,
    socle,
)
from .bott import BottResult, bott_cohomology, schur_sub_twist_cohomology
from .errors import LevelAlgError
from .forms import Form, Subspace, form_parse, form_print, monomials, subspace_intersect
from .kronecker import character, kronecker
from .levelhf import (
    BurchMatrix,
    HilbertFunction,
    burch_ideal,
    burch_matrix,
    count_level_hf,
    dim_stratum,
    e_sequence,
    enumerate_level_hf,
    grassmannian_dim,
    hf_from_partition,
    is_level_hf,
    is_level_sequence,
    minmax_hf,
    partition_from_hf,
    q_sequence,
)
from .linalg import QQ, det, rank, right_kernel, rref
from .resolution import (
    ComponentReport,
    E1Table,
    ResolutionTable,
    c1_c2_analysis,
    c2_witness_hf,
    e1_vanishing_table,
    expected_codim,
    lascoux_ranks,
)
from .schubert import (
    SchubertClass,
    class_of,
    class_one,
    format_class,
    lr_coefficient,
    lr_multiply,
    parse_class,
    porteous_class,
)
from .secant import (
    GAD,
    SecantPlane,
    gad_subspace,
    hankel_matrix,
    hankel_rank,
    hypersurface_case,
    in_sigma,
    secant_decompose,
    secant_intersect,
    sigma_dim,
    stacked_catalecticant_det,
    stacked_hankel,
    waring_witness_hf,
)
from .tangent import TangentSpace, tangent_space

__version__ = "0.1.0"
