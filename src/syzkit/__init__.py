"""Graded homological algebra over quotients of polynomial rings.

Minimal free resolutions, Betti numbers and complexity, Tor and Ext,
depth from Koszul homology, self-extension pushouts and
complexity-reduction witnesses, and tensor/cone constructions of periodic
complexes, all over prime fields with exact arithmetic.
"""

from .errors import (
    DegreeBoundError,
    HomogeneityError,
    ParseError,
    SyzkitError,
    WindowError,
)
from .rings import (
    PolyRing,
    TruncatedQuotientRing,
    algebra_tensor,
    ring_from_strings,
)
from .modules import (
    GradedModule,
    ModuleMap,
    free_module,
    module_from_presentation,
    module_from_strings,
    residue_field,
    tensor_presentation,
    verify_ses,
)
from .resolutions import (
    ComplexityEstimate,
    DepthReport,
    FreeResolution,
    complexity_of_module,
    depth,
    depth_of_ring,
    detect_resolution_periodicity,
    estimate_complexity,
    resolve,
    syzygy,
)
from .homological import (
    DepthFormulaReport,
    ExtClass,
    ReductionSequence,
    TorProfile,
    check_depth_formula,
    ext_basis,
    pushout_extension,
    reduction_search,
    tor,
    tor_as_module,
)
from .complexes import (
    ChainMap,
    FreeComplex,
    coker_module,
    cone,
    induced_chain_map,
    minimize_complex,
    tensor_many,
    tensor_pair,
)
from .chainsolve import PeriodicityCertificate
from .construction import (
    ConstructionResult,
    build_e_sequence,
    corollary_module,
    detect_complex_periodicity,
    run_construction,
)
