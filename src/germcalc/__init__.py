"""germcalc: exact arithmetic for formal diffeomorphism germs and singular
formal vector fields, with verification drivers for the maximal-length
solvable and nilpotent example families.

Importing the package loads none of its submodules.  Each name in
``__all__``, and each submodule such as ``germcalc.lie``, is imported on
first access (PEP 562) and then cached here, so a caller pays only for the
modules it uses: ``exp_field`` and ``log_diffeo`` load ``scalars``,
``laurent``, ``fields``, ``matrices`` and ``diffeos``, and none of the Lie
machinery in ``lie`` and ``jets`` (``spans`` only once a linear part is
inverted).
"""

import importlib

__version__ = "0.1.0"

# each export -> the submodule that defines it
_EXPORTS = {
    "Scalar": "scalars",
    "LaurentPoly": "laurent",
    "substitute": "laurent",
    "BudgetExceededError": "fields",
    "VectorField": "fields",
    "is_first_integral": "fields",
    "nilpotency_degree_a": "fields",
    "CommutatorWord": "diffeos",
    "FormalDiffeo": "diffeos",
    "WordComm": "diffeos",
    "WordLeaf": "diffeos",
    "evaluate_word": "diffeos",
    "exp_field": "diffeos",
    "log_diffeo": "diffeos",
    "word_depth": "diffeos",
    "JetMatrix": "jets",
    "field_to_jet_matrix": "jets",
    "jet_basis": "jets",
    "to_jet_matrix": "jets",
    "jordan_chevalley": "matrices",
    "KappaSequence": "lie",
    "LieAlgebraSpan": "lie",
    "bracket_closure": "lie",
    "central_series": "lie",
    "derived_series": "lie",
    "generic_rank": "lie",
    "kappa_sequence": "lie",
    "nilpotency_class": "lie",
    "soluble_length": "lie",
    "span_reduce": "lie",
}

_SUBMODULES = frozenset({
    "cli", "diffeos", "families", "fields", "jets", "laurent", "lie",
    "matrices", "parsing", "ratfunc", "scalars", "spans", "verification",
})

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys() | _SUBMODULES)
