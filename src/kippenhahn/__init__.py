"""Exact-arithmetic toolkit for numerical ranges and their boundary curves:
pencil determinants, dual curves via Groebner elimination, real singular
points, pole/polar duality, and desk-scale verification of the convex-hull
statement and its failure mode.
"""

from .exactnum import (
    AlgebraicReal,
    ComplexInterval,
    GaussianRational,
    ParseError,
    RationalInterval,
    UniPoly,
    parse_gaussian,
    parse_rational,
)
from .mpoly import (
    MultiPoly,
    MonomialOrder,
    elimination_order,
    grevlex_order,
    lex_order,
    parse_poly,
    poly_gcd,
)
from .groebner import (
    Ideal,
    NonPrincipalIdealError,
    ResourceLimitError,
    buchberger,
    dual_curve,
    eliminate,
    normal_form,
)
from .matrixpencil import (
    EigenResult,
    HermitianMatrix,
    HermitianPencil,
    eigen_hermitian,
    parse_pencil_text,
    pencil_det,
    sample_numrange_boundary,
    support_function,
)
from .realroots import (
    PrecisionError,
    SingularPoint,
    count_real_roots,
    real_singular_points,
    resultant,
    sturm_isolate,
)
from .convexgeom import (
    OracleBody,
    PencilBody,
    PointCloud,
    ProjLine,
    ProjPoint,
    TangencyWitness,
    VerificationReport,
    VerifyConfig,
    check_lemma_ws,
    convex_hull,
    fermat6_body,
    hausdorff,
    line_curve_real_check,
    line_meets_interior_dual,
    point_outside_W,
    run_verification,
    sample_kippenhahn_curve,
    tangency_check,
)

__version__ = "0.1.0"
