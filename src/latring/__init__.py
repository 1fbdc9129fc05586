"""Exact-arithmetic lattice-ordered rings.

Concrete locally solid lattice rings over the rationals, the positive-part
construction for group homomorphisms between them, decidable boundedness
classification, convergence certificates in three homomorphism topologies,
and a self-checking counterexample gallery.
"""

from .elements import EvSeq, FinVec, ZInt
from .errors import (
    DecompositionPrereqViolated,
    EmptyInput,
    InputError,
    InvalidArgument,
    InvalidElement,
    InvalidNeighborhood,
    LatringError,
    NotAdditiveOnCone,
    NotBounded,
    NotBoundedAbove,
    OracleTooLarge,
    SoundnessBug,
    SpecFileError,
    UnknownCase,
    UnknownInstance,
    UnknownName,
    VacuousProduct,
)
from .extended import INF, CoordBounds
from .homs import (
    ConeExtension,
    ConeMap,
    MatrixHom,
    SeqHom,
    directed_sup,
    extend_from_cone,
    hom_join,
    hom_meet,
    identity_on,
    is_order_bounded,
    modulus,
    negative_part,
    positive_part,
    riesz_decompose,
    sup_over_interval_oracle,
    truncation_matrix,
)
from .homspaces import (
    ClassLabel,
    HomNet,
    br_converges,
    classify,
    converges,
    cr_converges,
    lattice_continuity_audit,
    limit_uniqueness_audit,
    nr_converges,
)
from .spaces import (
    FRingVerdict,
    Multiplication,
    Space,
    SpaceKind,
    TopologyId,
    abs_val,
    archimedean_witness,
    check_f_ring,
    join,
    matrix2_mul,
    meet,
    neg_part,
    pos_part,
    ring_mul,
)
from .topology import (
    FiniteSet,
    ImageSet,
    Interval,
    Neighborhood,
    NbhdSet,
    SetDesc,
    SolidHull,
    coordinate_bounds,
    fatou_check,
    group_bound_multiplier,
    hull_bounded_preservation,
    is_solid,
    sample_member,
    set_contains,
    set_group_bounded,
    set_ring_bounded,
)

__version__ = "0.1.0"
