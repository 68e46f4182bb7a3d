"""Groupoid-valued functors on orbit categories and their cell realizations."""

from .verdicts import Verdict, combine
from .groups import (
    FiniteGroup,
    Subgroup,
    SubgroupFamily,
    cyclic_group,
    enumerate_subgroups,
    family_all,
    family_trivial,
    group_from_permutations,
    group_from_table,
    left_cosets,
    symmetric_group,
    trivial_group,
    validate_family,
)
from .orbit import OrbitCategory, OrbitMorphism
from .groupoids import (
    Gen,
    GroupPresentation,
    GroupoidMorphism,
    PresentedGroupoid,
    Word,
    abelianized_isotropy_map,
    check_respects_relations,
    compose_morphisms,
    equivalence_report,
    identity_morphism,
    simplify_presentation,
    strict_isomorphism_report,
    words_equal_verdict,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    cohomology_ranks,
    homology,
    quotient_invariants,
    smith_normal_form,
)
from .complexes import (
    CellularMap,
    Edge,
    Face,
    GCellComplex,
    Solid,
    fixed_subcomplex,
    fundamental_groupoid,
    glue,
    homology_of_complex,
    identity_cellular_map,
    mapping_cylinder,
    mapping_torus,
    presentation_complex,
    realize_morphism,
    validate_complex,
)
from .functors import (
    NaturalTransformation,
    OrbFunctor,
    equivalence_of_functors,
    induced_functor_from_complex,
    induced_transformation,
    make_functor,
    validate_functoriality,
)
from .realize import (
    CoendResult,
    RealizationResult,
    build_homotopy_coend,
    build_space,
    verify_fundamental_functor,
    verify_step2,
    zero_skeleton_coend,
)
from .documents import (
    InputDocument,
    documents_equal,
    parse_document,
    parse_path,
    render_document,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
