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
    Edge,
    Face,
    GCellComplex,
    Solid,
    fixed_subcomplex,
    fundamental_groupoid,
    homology_of_complex,
    validate_complex,
)
from .functors import (
    NaturalTransformation,
    OrbFunctor,
    induced_functor_from_complex,
    make_functor,
    validate_functoriality,
)
from .realize import (
    CoendResult,
    RealizationResult,
    build_space,
    verify_fundamental_functor,
    verify_step2,
    zero_skeleton_coend,
)
from .documents import (
    InputDocument,
    parse_document,
    parse_path,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
