"""Implication conflicts on every Yes/No assignment, for both families."""

import itertools

import pytest

from lcl import PN_IMPLICATIONS, PSN_IMPLICATIONS, Verdict, implication_conflicts

WORDS = ["".join(w) for w in itertools.product("YN", repeat=4)]

# The assignments each family's theorems allow, written out by hand. pn:
# 3-type is 0-type, a 0-type curve is every type, 1-type implies 2-type.
# psn: 1-type implies 2-type, and nothing constrains k0 or k3.
CONSISTENT = {
    "pn": {"YYYY", "NYYN", "NNYN", "NNNN"},
    "psn": {w for w in WORDS if w[1:3] != "YN"},
}


@pytest.mark.parametrize("name, graph", [("pn", PN_IMPLICATIONS),
                                         ("psn", PSN_IMPLICATIONS)],
                         ids=["pn", "psn"])
def test_closure_on_every_raw_assignment(name, graph):
    assert len(WORDS) == 16
    verdict = {"Y": Verdict.YES, "N": Verdict.NO}
    for word in WORDS:
        verdicts = {k: verdict[c] for k, c in enumerate(word)}
        inc = implication_conflicts(verdicts, graph)
        assert (not inc) == (word in CONSISTENT[name]), word
        # every broken edge once, in edge order (both graphs are sorted)
        broken = [f"k{a}=Yes implies k{b}=Yes but k{b}=No"
                  for a, b in itertools.product(range(4), repeat=2)
                  if (a, b) in graph and word[a] + word[b] == "YN"]
        assert inc == broken, word
        assert verdicts == {k: verdict[c] for k, c in enumerate(word)}
