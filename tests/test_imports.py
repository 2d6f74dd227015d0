"""The import graph: ``import germcalc`` loads no submodule, the group side
loads none of the Lie machinery, and the Lie side none of the group side.
Each check runs in a fresh interpreter, so that no module imported by
another test can hide a load."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the names the package exported when its __init__ imported every submodule,
# with the submodule each came from
SOURCES = [
    ("scalars", ["Scalar"]),
    ("laurent", ["LaurentPoly", "substitute"]),
    ("fields", ["BudgetExceededError", "VectorField", "is_first_integral",
                "nilpotency_degree_a"]),
    ("diffeos", ["CommutatorWord", "FormalDiffeo", "WordComm", "WordLeaf",
                 "evaluate_word", "exp_field", "log_diffeo", "word_depth"]),
    ("jets", ["JetMatrix", "field_to_jet_matrix", "jet_basis", "to_jet_matrix"]),
    ("matrices", ["jordan_chevalley"]),
    ("lie", ["NON_TERMINATING", "KappaSequence", "LieAlgebraSpan", "bracket_closure",
             "central_series", "derived_series", "generic_rank", "kappa_sequence",
             "nilpotency_class", "soluble_length", "span_reduce"]),
]
EXPORTS = [name for _, names in SOURCES for name in names]

GROUP_SIDE = ["germcalc", "germcalc.diffeos", "germcalc.fields", "germcalc.laurent",
              "germcalc.matrices", "germcalc.scalars"]
LIE_SIDE = ["germcalc", "germcalc.families", "germcalc.fields", "germcalc.laurent",
            "germcalc.lie", "germcalc.scalars", "germcalc.spans"]


def run_fresh(code: str):
    """Run code in a new interpreter and return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'germcalc')"


def test_bare_import_loads_no_submodule():
    assert run_fresh(f"""
        import json, sys
        import germcalc
        print(json.dumps({LOADED}))
    """) == ["germcalc"]


def test_exp_log_load_only_the_group_side():
    loaded, extra = run_fresh(f"""
        import json, sys
        import germcalc.diffeos
        from germcalc.diffeos import exp_field, log_diffeo
        from germcalc.fields import VectorField
        from germcalc.laurent import LaurentPoly

        # x2 d1 + x1^2 d1 on dimension 2
        X = VectorField([LaurentPoly.variable(2, 2) + LaurentPoly.monomial(2, {{1: 2}}),
                         LaurentPoly.zero(2)])
        assert log_diffeo(exp_field(X, 1, 4)) == X
        print(json.dumps([{LOADED}, sorted({{"dataclasses", "inspect"}} & sys.modules.keys())]))
    """)
    assert loaded == GROUP_SIDE
    assert extra == []


def test_chain_kappa_loads_only_the_lie_side():
    loaded, extra = run_fresh(f"""
        import json, sys
        from germcalc import families, lie

        assert lie.kappa_sequence(families.build_chain_algebra(3, 0, 4)).values == (3, 3, 2, 0)
        print(json.dumps([{LOADED}, sorted({{"dataclasses", "inspect"}} & sys.modules.keys())]))
    """)
    assert loaded == LIE_SIDE
    assert extra == []


def test_verify_all_loads_no_dataclasses():
    assert run_fresh("""
        import json, sys
        from germcalc import verification

        assert all(r.ok for r in verification.run_all_verifications(0))
        print(json.dumps(sorted({"dataclasses", "inspect"} & sys.modules.keys())))
    """) == []


def test_all_lists_the_exports():
    assert run_fresh("""
        import json
        import germcalc
        print(json.dumps(germcalc.__all__))
    """) == EXPORTS


def test_each_export_is_its_submodule_attribute():
    assert len(EXPORTS) == len(set(EXPORTS)) == 31
    assert run_fresh(f"""
        import importlib, json
        import germcalc

        wrong = [name for module, names in {SOURCES!r} for name in names
                 if getattr(germcalc, name)
                 is not getattr(importlib.import_module("germcalc." + module), name)]
        print(json.dumps([wrong, sorted(set({EXPORTS!r}) - set(dir(germcalc)))]))
    """) == [[], []]


def test_star_import_binds_every_export():
    assert run_fresh(f"""
        import json
        from germcalc import *
        print(json.dumps([name for name in {EXPORTS!r} if name not in globals()]))
    """) == []


def test_submodules_resolve_as_attributes():
    # lie first, so that no earlier import has bound it on the package
    modules = sorted((p.stem for p in (SRC / "germcalc").glob("*.py") if p.stem != "__init__"),
                     key=lambda name: name != "lie")
    assert modules[0] == "lie"
    assert run_fresh(f"""
        import json, sys
        import germcalc
        print(json.dumps([name for name in {modules!r}
                          if getattr(germcalc, name) is not sys.modules["germcalc." + name]
                          or name not in dir(germcalc)]))
    """) == []


def test_unknown_name_raises_attribute_error():
    import germcalc

    with pytest.raises(AttributeError, match="no_such_export"):
        germcalc.no_such_export
    assert not hasattr(germcalc, "no_such_export")
