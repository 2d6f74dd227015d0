"""The process runner of ``verify all``: a forked child's share gives the
reports of an in-process run, a share no child delivered runs in the caller,
so errors keep their type on any number of CPUs, and no child outlives a
run."""

import os
import threading
import time
from functools import partial

import pytest

from germcalc import cli, verification
from germcalc.families import build_chain_algebra, chain_space_size
from germcalc.fields import BudgetExceededError, VectorField
from germcalc.laurent import LaurentPoly
from germcalc.lie import LieAlgebraSpan, derived_series
from germcalc.parsing import ParseError
from germcalc.verification import (
    reports_to_json,
    run_all_verifications,
    sample_planar_depth2_words,
    verify_length_bounds,
    verify_solvable_family,
)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [0, 18])
def test_two_workers_give_the_in_process_reports(monkeypatch, seed):
    monkeypatch.setattr(verification, "_can_fork", lambda: False)
    one = run_all_verifications(seed)
    monkeypatch.setattr(verification, "_can_fork", lambda: True)
    two = run_all_verifications(seed)
    assert [r.claim_id for r in two] == [r.claim_id for r in one]
    assert reports_to_json(two) == reports_to_json(one)
    assert all(r.elapsed > 0 for r in two)


@pytest.mark.parametrize("cpus, fork", [({0}, False), ({0, 1}, True), (set(range(8)), True)])
def test_can_fork_needs_two_cpus(monkeypatch, cpus, fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert verification._can_fork() is fork


def test_one_process_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verification._can_fork()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert not verification._can_fork()
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()


def test_each_unit_runs_where_its_mark_says():
    parent = os.getpid()
    units = verification._verification_units(0)
    marks = [in_child for in_child, _ in units]
    assert True in marks and False in marks
    located = [(in_child, lambda call=call: (os.getpid(), call())) for in_child, call in units]
    pids = [pid for pid, _ in verification._run_units(located, True)]
    assert [pid != parent for pid in pids] == marks


def _raise(exc):
    def unit(*args):
        raise exc

    return unit


@pytest.mark.parametrize(
    "exc, code",
    [
        (BudgetExceededError("the witness needs more than the budget"), cli.EXIT_BUDGET),
        (ValueError("the witness fixture is malformed"), cli.EXIT_PRECONDITION),
    ],
)
def test_child_error_raises_in_the_parent(monkeypatch, capsys, exc, code):
    # both witness claims are marked for the child
    monkeypatch.setattr(verification, "verify_group_witness_fixture", _raise(exc))
    monkeypatch.setattr(verification, "_can_fork", lambda: True)
    with pytest.raises(type(exc)) as raised:
        run_all_verifications(0)
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert cli.main(["verify", "all"]) == code
    assert str(exc) in capsys.readouterr().err


def test_child_error_that_would_not_unpickle_arrives_named():
    # ParseError's constructor takes the text and position, not its message,
    # so it could not cross the pipe; the caller raises it from its own run
    exc = ParseError("unexpected character '@'", "x1 @", 3)
    with pytest.raises(ParseError) as raised:
        verification._run_units([(True, _raise(exc)), (False, int)], True)
    assert raised.value is exc


def test_child_that_ends_without_writing_gets_its_share_run_here():
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(0)
        return "here"

    assert verification._run_units([(True, die), (False, int)], True) == ["here", 0]


@pytest.mark.parametrize("fork", [False, True])
def test_when_both_shares_raise_the_callers_error_wins(fork):
    units = [(True, _raise(BudgetExceededError("child"))), (False, _raise(ValueError("caller")))]
    with pytest.raises(ValueError, match="caller"):
        verification._run_units(units, fork)


def test_parent_error_kills_the_children():
    def fail():
        raise ValueError("the parent's share failed")

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="the parent's share failed"):
        verification._run_units([(True, partial(time.sleep, 60)), (False, fail)], True)
    assert time.monotonic() - t0 < 30


def test_results_come_back_in_unit_order():
    units = [(k % 2 == 0, partial(pow, k, 2)) for k in range(1, 8)]
    assert verification._run_units(units, True) == [k * k for k in range(1, 8)]


def test_length_bounds_reads_the_planar_sample():
    assert sample_planar_depth2_words() == [True] * 4
    chain = verify_solvable_family(1, 6)
    assert verify_length_bounds([chain], [True] * 4).status == "pass"
    r = verify_length_bounds([chain], [True, False, True, True])
    assert r.status == "fail"
    assert r.witness == "planar family has a nontrivial depth-2 derived word"


# -- containment in a chain space by support -------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", [6, 12, 18])
def test_support_containment_agrees_with_the_echelon(n, order):
    g0 = build_chain_algebra(n, 0, order)
    levels = derived_series(g0)
    needed = verification._chain_prefixes(g0, levels)
    outcomes = set()
    for j in range(min(2 * n, len(levels) - 1) + 1):
        G = build_chain_algebra(n, j, order)
        size = chain_space_size(n, j, order)
        for level, count in zip(levels, needed):
            expected = G.contains_span(level) if G.basis else level.is_zero()
            assert (count <= size) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_support_containment_rejects_one_term_outside():
    n, order = 2, 12
    G0, G2 = (build_chain_algebra(n, j, order) for j in (0, 2))
    inside = G2.basis[0]
    outside = next(X for X in G0.basis if not G2.contains_field(X))
    field = VectorField([a + b for a, b in zip(inside.coeffs, outside.coeffs)])
    x1d1 = VectorField.from_terms(n, (LaurentPoly.variable(n, 1), 1))  # in no chain space
    span, within, stray = (LieAlgebraSpan(n, (X,), order) for X in (field, inside, x1d1))
    needed, needed_within, needed_stray = verification._chain_prefixes(G0, [span, within, stray])
    assert needed > G2.dimension and not G2.contains_span(span)
    assert needed <= G0.dimension and G0.contains_span(span)
    assert needed_within <= G2.dimension and G2.contains_span(within)
    assert needed_stray > G0.dimension and not G0.contains_span(stray)
