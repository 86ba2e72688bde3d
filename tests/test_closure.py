"""The implication closure on every raw assignment, for both families."""

import itertools

import pytest

from lcl import PN_IMPLICATIONS, PSN_IMPLICATIONS, Verdict, implication_closure

Y, N, U = Verdict.YES, Verdict.NO, Verdict.UNDETERMINED
ASSIGNMENTS = [dict(enumerate(v)) for v in itertools.product((Y, N, U), repeat=4)]


def _one_pass_psn_closure(raw):
    """Reference: one pass over the single pseudo null edge 1 => 2."""
    closed = {k: raw.get(k, U) for k in range(4)}
    notes, inconsistencies = [], []
    if closed[1] is Y and closed[2] is N:
        inconsistencies.append("k1=Yes implies k2=Yes but k2=No")
    elif closed[1] is Y and closed[2] is U:
        closed[2] = Y
        notes.append("k2=Yes from k1=Yes")
    elif closed[2] is N and closed[1] is U:
        closed[1] = N
        notes.append("k1=No from k2=No")
    return closed, notes, inconsistencies


@pytest.mark.parametrize("graph", [PN_IMPLICATIONS, PSN_IMPLICATIONS],
                         ids=["pn", "psn"])
def test_closure_on_every_raw_assignment(graph):
    assert len(ASSIGNMENTS) == 81
    for raw in ASSIGNMENTS:
        closed, notes, inc = implication_closure(raw, graph)
        for k, v in raw.items():
            if v is not U:
                assert closed[k] is v, (raw, k)
        violated = []
        for a, b in graph:
            if closed[a] is Y and closed[b] is not Y or \
                    closed[b] is N and closed[a] is not N:
                msg = f"k{a}=Yes implies k{b}=Yes but k{b}=No"
                assert inc.count(msg) == 1, (raw, a, b)
                violated.append(msg)
        assert sorted(inc) == sorted(violated), raw
        again, again_notes, again_inc = implication_closure(closed, graph)
        assert again == closed and again_notes == [] and again_inc == inc
        if graph is PSN_IMPLICATIONS:
            assert (closed, notes, inc) == _one_pass_psn_closure(raw)
