"""Exact-arithmetic toolkit for trivector degeneracy loci.

Marking lattices and discriminant forms for special Peskine sixfolds,
closed-form and brute-force criteria for associated K3 surfaces and
cubic fourfolds, and the geometric pipeline from an explicit trivector
to a certified-smooth cubic fourfold.
"""

from .ntheory import CertificateError, QmodTwoZ, factorize, is_square_mod, legendre
from .lattice import (
    DegenerateLatticeError,
    DiscGroup,
    GramLattice,
    determinant,
    discriminant_group,
    smith_normal_form,
)
from .markings import (
    MarkingGram,
    admissible,
    disc_form_closed,
    hls_set,
    lambda11,
    marking_gram,
)
from .associations import (
    AssociationRow,
    CriterionMismatchError,
    cubic_closed,
    cubic_oracle,
    k3_closed,
    k3_oracle,
    table1,
)
from .polyring import (
    MultiPoly,
    buchberger,
    gcd_multivariate,
    only_zero_at_origin,
    pfaffian,
    substitute_linear,
)
from .trivector import (
    Flag,
    PeskineSystem,
    Trivector,
    contract,
    extract_cubic,
    line_in_peskine,
    peskine_equations,
    rank_at_point,
    restrict_to_subspace,
    smoothness_check,
    smoothness_checks,
    symbolic_contract,
    verify_flag,
    x6_membership,
    x7_kernel,
)

__version__ = "0.1.0"
