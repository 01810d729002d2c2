"""Acceptance suite: the pinned verify report, and end-to-end checks of each claim.

`mforce verify --suite all` at its default limits replays every result the
package checks against the paper. Its rows, less the millis timing column,
are pinned in tests/data/verify_all_default.csv, and that file is the
acceptance record: the replay below compares it byte for byte, `open` rows
included, and CI diffs it against a subprocess run. The other tests here
check headline claims against independent recomputation (the exact search,
seeded samples, properties), and what no row of that report covers.
Everything is exact; there are no tolerances.
"""

import csv
import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_nonzero_patterns, load, load_matrix, nonzero_patterns
from mforce import (
    BitMatrix,
    SearchConfig,
    apply_symmetry,
    direct_sum,
    identity,
    is_strongly_forcing,
    linear_zero_construction,
    make,
    min_ones,
    minimal_forcing,
    search_max,
    serialize,
    split_witness,
)
from mforce.cli import main
from mforce.forcing import minimal_forcing_from_corners
from mforce.strong_forcing import symmetry_ops


class TestPinnedReport:
    def test_default_rows_match_the_pinned_report(self, capsys):
        code = main(["verify", "--suite", "all"])
        got = io.StringIO()
        csv.writer(got, lineterminator="\n").writerows(
            row[:5] for row in csv.reader(io.StringIO(capsys.readouterr().out))
        )
        assert got.getvalue() == load("verify_all_default.csv")
        assert code == 0


class TestWorkedExampleReproduction:
    """The 7x6 pattern and its unique 14x12 minimum forcing matrix."""

    def test_window_and_corner_assembly_match_fixture(self):
        q = load_matrix("example_pattern_7x6.txt")
        fixture = load("example_minimal_14x12.txt")
        assert serialize(minimal_forcing(14, 12, q)) == fixture
        assert serialize(minimal_forcing_from_corners(14, 12, q)) == fixture


class TestWindowEqualsSubsetOracle:
    """The sweep family of the window-equals-oracle and closed-forms rows.

    Those rows of the pinned report check every nonzero pattern up to 3x3
    (673 of them, a superset of the 511 full 3x3 patterns) against every
    ambient with 4 <= m, n <= 7.
    """

    def test_sweep_family_has_673_patterns(self):
        patterns = list(all_nonzero_patterns())
        assert len(patterns) == len(set(patterns)) == 673
        assert all(q.ones_count() and q.rows <= 3 and q.cols <= 3 for q in patterns)


class TestNonMonotoneContainmentChain:
    """Pattern containment does not order the forcing minima."""

    def test_one_by_one_versus_padded_versus_framed(self):
        q1 = make(1, 1, 1)
        q2 = load_matrix("q2.txt")
        q3 = load_matrix("q3.txt")
        for m in range(4, 13):
            for n in range(4, 13):
                a = min_ones(m, n, q1).value
                b = min_ones(m, n, q2).value
                c = min_ones(m, n, q3).value
                assert a == m * n
                assert b == (m - 1) * (n - 1)
                assert a > b
                assert c > b


class TestDihedralTransfer:
    """Symmetric patterns have symmetric extremal level sets.

    The dihedral suite covers the 3x3 permutation classes; this covers
    {I_2, H_2}.
    """

    def test_class_members_share_maxima_and_witness_sets(self):
        seed = identity(2)
        outcomes = {
            q: search_max(4, q, SearchConfig(enumerate_all_extremal=True))
            for q in {apply_symmetry(seed, seq) for seq in symmetry_ops(seed)}
        }
        values = {out.best_ones for out in outcomes.values()}
        assert len(values) == 1
        base = outcomes[seed]
        for seq in symmetry_ops(seed):
            image = apply_symmetry(seed, seq)
            mapped = {apply_symmetry(w, seq) for w in base.witnesses}
            assert mapped == set(outcomes[image].witnesses)


class TestLinearZeroSample:
    """Randomised spot check of the linear-zero-count construction."""

    def test_twenty_seeded_instances(self):
        rng = random.Random(97)
        seen = 0
        while seen < 20:
            s = rng.randint(1, 3)
            t = rng.randint(1, 4)
            bits = tuple(rng.getrandbits(t) for _ in range(s))
            if not any(bits):
                continue
            q = BitMatrix(s, t, bits)
            m = rng.randint(s, 20)
            n = rng.randint(t, 20)
            built = linear_zero_construction(m, n, q)
            assert is_strongly_forcing(built, q)

            rr = next(i for i, row in enumerate(q.bits) if row)
            cc = (q.bits[rr] & -q.bits[rr]).bit_length() - 1
            z_col = sum(1 for row in q.bits if not (row >> cc) & 1)
            z_row = t - q.bits[rr].bit_count()
            assert m * n - built.ones_count() == (
                s * t - q.ones_count() + (n - t) * z_col + (m - s) * z_row
            )
            seen += 1


class TestPropertySuite:
    """Bounded property-based forms of the package-wide invariants."""

    @given(
        st.integers(1, 2), st.integers(1, 2),
        st.integers(0, 2), st.integers(0, 2),
    )
    @settings(max_examples=25)
    def test_identity_witnesses_stack(self, k1, k2, d1, d2):
        a = split_witness(k1 + d1, identity(k1))
        b = split_witness(k2 + d2, identity(k2))
        assert is_strongly_forcing(direct_sum(a, b), identity(k1 + k2))

    @given(nonzero_patterns(), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=25)
    def test_all_zero_ambient_is_vacuously_strong(self, pattern, dm, dn):
        zero = make(pattern.rows + dm, pattern.cols + dn, 0)
        assert is_strongly_forcing(zero, pattern)
