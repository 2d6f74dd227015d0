"""The process runner of ``verify all``: forked shares give the reports of
an in-process run, errors cross the process boundary with their type and
message, and no child outlives a run."""

import os
import threading
import time
from functools import partial

import pytest

from germcalc import cli, verification
from germcalc.families import build_chain_algebra
from germcalc.fields import BudgetExceededError, VectorField
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
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 1)
    one = run_all_verifications(seed)
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    two = run_all_verifications(seed)
    assert [r.claim_id for r in two] == [r.claim_id for r in one]
    assert reports_to_json(two) == reports_to_json(one)
    assert all(r.elapsed > 0 for r in two)


def test_one_process_while_another_thread_runs():
    assert verification._usable_cpus() == len(os.sched_getaffinity(0))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert verification._usable_cpus() == 1
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()


def test_at_most_two_processes(monkeypatch):
    counts = []
    run_units = verification._run_units

    def counting(units, workers):
        counts.append(workers)
        return run_units(units, workers)

    monkeypatch.setattr(verification, "_run_units", counting)
    for cpus in (1, 2, 8):
        monkeypatch.setattr(verification, "_usable_cpus", lambda: cpus)
        run_all_verifications(0)
    assert counts == [1, 2, 2]


def test_every_unit_is_dealt_once():
    for heavy in (False, True):
        units = verification._verification_units(0, heavy)
        costs = [ms for ms, _ in units]
        for workers in range(1, len(units) + 1):
            shares = verification._deal(costs, workers)
            assert len(shares) == workers
            assert sorted(i for share in shares for i in share) == list(range(len(units)))
            assert all(share == sorted(share) for share in shares)


def test_two_shares_balance_within_fifteen_percent():
    units = verification._verification_units(0, False)
    costs = [ms for ms, _ in units]
    parent, child = verification._deal(costs, 2)
    loads = (
        verification._LENGTH_BOUNDS_MS + sum(costs[i] for i in parent),
        sum(costs[i] for i in child),
    )
    assert max(loads) <= 1.15 * min(loads)


def _raise_in_child(parent, exc):
    def unit(*args):
        if os.getpid() == parent:
            raise AssertionError("the unit ran in the parent")
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
    # both witness claims land in the child's share when two processes run
    monkeypatch.setattr(
        verification, "verify_group_witness_fixture", _raise_in_child(os.getpid(), exc)
    )
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    with pytest.raises(type(exc)) as raised:
        run_all_verifications(0)
    assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
    assert cli.main(["verify", "all"]) == code
    assert str(exc) in capsys.readouterr().err


def test_child_error_that_would_not_unpickle_arrives_named():
    # ParseError's constructor takes the text and position, not its message
    exc = ParseError("unexpected character '@'", "x1 @", 3)
    units = [(10.0, _raise_in_child(os.getpid(), exc)), (1.0, int)]
    with pytest.raises(RuntimeError) as raised:
        verification._run_units(units, 2)
    assert str(raised.value) == f"ParseError: {exc}"


def test_child_that_ends_without_writing_raises():
    parent = os.getpid()

    def die():
        if os.getpid() == parent:
            raise AssertionError("the unit ran in the parent")
        os._exit(0)

    with pytest.raises(RuntimeError, match="ended without a result"):
        verification._run_units([(10.0, die), (1.0, int)], 2)


def test_parent_error_kills_the_children():
    def fail():
        raise ValueError("the parent's share failed")

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="the parent's share failed"):
        verification._run_units([(10.0, partial(time.sleep, 60)), (1.0, fail)], 2)
    assert time.monotonic() - t0 < 30


def test_results_come_back_in_unit_order():
    units = [(float(ms), partial(pow, ms, 2)) for ms in range(1, 8)]
    assert verification._run_units(units, 3) == [ms * ms for ms in range(1, 8)]


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
    levels = derived_series(build_chain_algebra(n, 0, order))
    spaces = [build_chain_algebra(n, j, order) for j in range(min(2 * n, len(levels) - 1) + 1)]
    outcomes = set()
    for G in spaces:
        for level in levels:
            expected = G.contains_span(level) if G.basis else level.is_zero()
            assert verification._within_monomial_support(G, level) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_support_containment_rejects_one_term_outside():
    n, order = 2, 12
    G0, G2 = (build_chain_algebra(n, j, order) for j in (0, 2))
    inside = G2.basis[0]
    outside = next(X for X in G0.basis if not G2.contains_field(X))
    field = VectorField([a + b for a, b in zip(inside.coeffs, outside.coeffs)])
    span = LieAlgebraSpan(n, "jet", (field,), order)
    assert not verification._within_monomial_support(G2, span)
    assert not G2.contains_span(span)
    assert verification._within_monomial_support(G0, span) and G0.contains_span(span)
    assert verification._within_monomial_support(G2, LieAlgebraSpan(n, "jet", (inside,), order))
