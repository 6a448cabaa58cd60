"""gofknots: counting genus-one fibered knots in lens spaces.

The lens space L(alpha, beta) double covers the 3-sphere branched over the
two-bridge link b(alpha, beta), and its genus-one fibered knots are the lifts
of braid axes of closed 3-braid representatives of that link.  This package
counts those axes exactly, produces explicit witness braid words, and
cross-checks every answer through an independent matrix pipeline (reduced
Burau at -1).
"""

from .braid import (
    BraidParseError,
    FULL_TWIST,
    HALF_TWIST,
    NormalForm,
    Syllables,
    Word,
    conjugacy_class,
    conjugate_by,
    expand,
    exponent_sum,
    format_syllables,
    format_word,
    invert,
    is_conjugate,
    mirror,
    normal_form,
    parse_word,
    reverse,
    surgery_twist,
    syllable_class,
)
from .classify import (
    AxisReport,
    ClosureId,
    FamilyParams,
    Witness,
    axis_classes,
    family_membership,
    family_witness,
    flype_partner,
    gof_count,
    identify_closure,
)
from .cover import (
    Matrix2,
    burau_matrix,
    burau_syllables,
    closure_determinant,
    dbc_homology,
)
from .twobridge import (
    DegenerateContinuedFractionError,
    Fraction,
    InvalidFractionError,
    OddFormRequiredError,
    OrientationClass,
    canonical,
    cf_to_fraction,
    equivalent,
    orbit,
    orientation_classes,
)
from .verify import (
    VerifyBounds,
    Violation,
    run_suites,
    verify_burau_witnesses,
    verify_conjugacy_suite,
    verify_counts,
    verify_inverse_identity,
    verify_orientation_uniqueness,
)

__version__ = "0.1.0"
