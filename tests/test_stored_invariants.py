"""Counts and enumerations store invariant tuples from checked parts.

``components._materialize`` stores each ``InvariantTuple`` with ``_store``
from factor values it made itself (bit vectors from ``product((0, 1))``,
the fixed weight vector, degrees and root indices from ``range``), so no
count and no enumeration runs the constructor's checks.  A stored tuple
must still be the value a direct construction of the same fields gives.
"""

import pytest

from parhiggs.components import (CountMode, InvariantTuple, count_components,
                                 e7_minus25, enumerate_invariants_sp,
                                 so0_2n, so_star_2n, sp2nr, sunn)
from parhiggs.exact_core import DomainError

GROUPS = [sp2nr(1), sp2nr(2), sp2nr(3), sunn(1), sunn(2), so_star_2n(2),
          so0_2n(3), so0_2n(4), e7_minus25()]
ENUMERABLE = [CountMode.max_union(), CountMode.fixed_parity("even"),
              CountMode.fixed_parity("odd"), CountMode.punctured()]
MODES = ENUMERABLE + [CountMode.nonparabolic(), CountMode.kd_twisted()]
FIELDS = ("w1", "w2", "parabolic", "degree", "root_index")


@pytest.fixture
def constructions(monkeypatch):
    """A list that grows by one on each run of InvariantTuple's checks."""
    runs = []
    checks = InvariantTuple.__post_init__

    def counted(self):
        runs.append(self)
        checks(self)

    monkeypatch.setattr(InvariantTuple, "__post_init__", counted)
    return runs


def test_counts_and_enumerations_run_no_constructor(constructions):
    counted = enumerated = 0
    for group in GROUPS:
        for mode in MODES:
            for s in (1, 2):
                try:
                    report = count_components(group, 2, s, mode)
                except DomainError:  # a mode the group has no count for
                    continue
                counted += report.total_enumerated
    for n in (1, 2, 3):
        for mode in ENUMERABLE:
            enumerated += len(enumerate_invariants_sp(n, 2, 2, mode))
    assert (counted, enumerated) == (2051, 642)
    assert constructions == []


GRID = [(n, g, s, mode) for n in (1, 2, 3) for g in range(4)
        for s in range(1, 4) if 2 * g - 2 + s > 0 for mode in ENUMERABLE]


def test_stored_tuples_equal_their_constructor_twins():
    stored = 0
    for n, g, s, mode in GRID:
        for t in enumerate_invariants_sp(n, g, s, mode):
            twin = InvariantTuple(t.kind, *(getattr(t, f) for f in FIELDS))
            assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
            assert all(type(getattr(t, f)) is type(getattr(twin, f))
                       for f in FIELDS)
            stored += 1
    assert stored == 13_997
