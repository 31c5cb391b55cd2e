"""Exact arithmetic for non-crystallographic root systems, their
reflection groups, the icosian ring and the reflection quasilattices."""

from .cutproject import (
    Embedding,
    Patch,
    Window,
    e8_bilinear,
    e8_gram,
    e8_roots,
    embedding,
    generate_patch,
    read_patch_csv,
    structure_factor,
    write_patch_csv,
)
from .groups import (
    GroupElement,
    ReflectionGroup,
    enumerate_h4_quaternion_maps,
    generate,
    h4_element_from_quaternions,
    orbit,
    reflection_matrix,
)
from .modules import (
    QL_NAMES,
    H4Residue,
    MembershipResult,
    QLModule,
    ScaleClassification,
    contains_root_copy,
    enumerate_h4_residues,
    h4_residue_of,
    membership,
    ql,
    residue_representative,
    scale_classification,
    verify_table1,
)
from .quaternions import (
    GoldenQuaternion,
    is_in_icosian_ring,
    qconj,
    qmul,
    qnorm,
    unit_icosians,
)
from .ring import (
    DomainError,
    FundamentalUnitResult,
    QuadraticRingElement,
    fundamental_unit,
    golden,
    tau,
    totient,
)
from .roots import H3, H4, I2, RootSystemId, gram, roots, simple_roots
from .textio import format_element, format_vector, parse_element, parse_exact_vector
from .vectors import ExactVector, reflect

__version__ = "0.1.0"
