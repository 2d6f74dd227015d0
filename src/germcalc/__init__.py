"""germcalc: exact arithmetic for formal diffeomorphism germs and singular
formal vector fields, with verification drivers for the maximal-length
solvable and nilpotent example families."""

from .scalars import Scalar
from .laurent import LaurentPoly, substitute
from .fields import (
    BudgetExceededError,
    VectorField,
    is_first_integral,
    nilpotency_degree_a,
)
from .diffeos import (
    CommutatorWord,
    FormalDiffeo,
    WordComm,
    WordLeaf,
    evaluate_word,
    exp_field,
    log_diffeo,
    word_depth,
)
from .jets import JetMatrix, field_to_jet_matrix, jet_basis, to_jet_matrix
from .matrices import jordan_chevalley
from .lie import (
    NON_TERMINATING,
    KappaSequence,
    LieAlgebraSpan,
    bracket_closure,
    central_series,
    derived_series,
    generic_rank,
    kappa_sequence,
    nilpotency_class,
    soluble_length,
    span_reduce,
)

__version__ = "0.1.0"
