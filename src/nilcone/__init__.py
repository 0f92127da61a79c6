"""Verification toolkit for graded resolutions of theta-nilpotent cones.

For an equal-rank classical real form, the package builds the +-1 root
grading of the Cartan involution, the even grading attached to a nilpotent
element, the resulting parabolic weights (in particular the canonical-bundle
weight 2rho(u cap p) - 2rho(u cap k)), graded character series of the
resolution with a higher-cohomology positivity check, Hilbert series, and
an alternating-sum multiplicity formula -- all in exact arithmetic, and all
cross-validated against an independent rational matrix model.
"""

__version__ = "0.1.0"

from .errors import (ConsistencyError, DiagnosticError, InputError,
                     OddGradingError, OutOfScopeError)
from .rootdata import (Root, RootSystem, Subsystem, VirtualCharacter, Weight,
                       WeylElement, build_root_system, kostant_partition,
                       make_dominant, weyl_dimension, weyl_elements)
from .realform import (CartanDecomposition, EqualRankInvolution,
                       cartan_decomposition, k_root_datum,
                       principal_presentation, standard_form_catalog)
from .grading import (GradedDecomposition, GradingElement, ParabolicData,
                      conormal_canonical_weight, grade, is_QK_dominant,
                      parabolic, search_even_gradings)
from .bott import CohomologyResult, euler_of_weights, line_cohomology
from .series import (GradedCharacterSeries, blattner_multiplicity,
                     components_split, euler_series, hilbert_series,
                     sym_weights, verify_vanishing, verify_vanishing_box)
from . import oracle

__all__ = [name for name in dir() if not name.startswith("_")]
