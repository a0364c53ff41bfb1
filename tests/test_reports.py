"""Descriptor assembly and provenance re-execution."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import kmw

from kmw.descriptor import GroupDescriptor, Provenance, SymbolicFactor
from kmw.errors import BadBound, MissingBound, UnsupportedDegree, UnsupportedField
from kmw.fields import finite_field, function_field, rationals
from kmw.fields import _primes_upto
from kmw.reports import (
    h2_laurent_report,
    h3_laurent_report,
    stabilization_report,
    verify_descriptor,
)

QQ = rationals()
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(9)


class TestH2Laurent:
    def test_bound_seven_worked_example(self):
        d = h2_laurent_report(QQ, 7)
        assert d.free_rank == 5
        assert d.cyclic_factors == (2, 2, 4, 2, 6, 2)
        assert d.trunc_bound == 7
        assert not d.symbolic_factors

    def test_bound_three(self):
        d = h2_laurent_report(QQ, 3)
        assert d.free_rank == 3
        assert d.cyclic_factors == (2, 2)

    def test_bound_fifty(self):
        d = h2_laurent_report(QQ, 50)
        assert d.free_rank == 16
        want = Counter()
        for p in _primes_upto(50):
            if p % 2:
                want[p - 1] += 1
                want[2] += 1
        assert Counter(d.cyclic_factors) == want

    def test_monotone_in_bound(self):
        small = Counter(h2_laurent_report(QQ, 7).cyclic_factors)
        mid = Counter(h2_laurent_report(QQ, 13).cyclic_factors)
        big = Counter(h2_laurent_report(QQ, 50).cyclic_factors)
        assert all(mid[k] >= v for k, v in small.items())
        assert all(big[k] >= v for k, v in mid.items())

    def test_missing_bound(self):
        with pytest.raises(MissingBound):
            h2_laurent_report(QQ)

    def test_finite_field_formal_tag(self):
        d = h2_laurent_report(F5)
        assert d.cyclic_factors == (4,)
        assert d.free_rank == 0
        assert "formal functor evaluation" in d.label
        d9 = h2_laurent_report(F9)
        assert d9.cyclic_factors == (8,)

    def test_function_field_rejected(self):
        with pytest.raises(UnsupportedField):
            h2_laurent_report(function_field(F5), 7)


@pytest.mark.parametrize("report", [h2_laurent_report, h3_laurent_report])
@pytest.mark.parametrize("bound", [7, 0, -4])
def test_prime_bound_over_finite_field_is_invalid(report, bound):
    # a bound truncates the places of Q; over F_q it would be dropped unread
    with pytest.raises(BadBound, match="over Q only"):
        report(F5, bound)


class TestH3Laurent:
    def test_finite_fields_pinned(self):
        assert h3_laurent_report(F5).cyclic_factors == (3,)
        assert h3_laurent_report(F7).cyclic_factors == ()
        assert h3_laurent_report(F9).cyclic_factors == (5,)

    def test_finite_field_symbolic_part(self):
        d = h3_laurent_report(F5)
        names = [s.name for s in d.symbolic_factors]
        assert names == ["1/2 H_3(SL_2(F_5))"]
        assert "formal functor evaluation" in d.label

    def test_rational_lower_bounds(self):
        d = h3_laurent_report(QQ, 7)
        assert d.cyclic_factors == (3, 1, 3, 1)
        orders = [s.order for s in d.symbolic_factors]
        assert orders == [3, 3, None]
        assert "lower bound" in d.label

    def test_rational_missing_bound(self):
        with pytest.raises(MissingBound):
            h3_laurent_report(QQ)

    @pytest.mark.parametrize("bound", [1, 0, -5, 7.0, "7"])
    def test_rational_bound_covers_a_prime(self, bound):
        with pytest.raises(BadBound, match="integer >= 2"):
            h3_laurent_report(QQ, bound)

    def test_rational_smallest_bound(self):
        d = h3_laurent_report(QQ, 2)
        assert d.trunc_bound == 2
        assert d.cyclic_factors == (3,)


class TestStabilization:
    def test_finite_degree_two_collapses(self):
        for F in (F5, F7, F9):
            d = stabilization_report(F, 2)
            assert d.free_rank == 0
            assert d.cyclic_factors == ()
            assert not d.symbolic_factors

    def test_rational_degree_two(self):
        d = stabilization_report(QQ, 2)
        assert d.free_rank == 1
        assert [s.name for s in d.symbolic_factors] == ["I^2(Q)"]

    def test_finite_degree_three(self):
        assert stabilization_report(F5, 3).cyclic_factors == (3,)
        assert stabilization_report(F7, 3).cyclic_factors == ()

    def test_rational_degree_three_symbolic(self):
        d = stabilization_report(QQ, 3)
        assert d.free_rank == 0 and d.cyclic_factors == ()
        assert len(d.symbolic_factors) == 4

    def test_bad_degree(self):
        with pytest.raises(UnsupportedDegree):
            stabilization_report(QQ, 4)
        with pytest.raises(UnsupportedDegree):
            stabilization_report(F5, 1)


class TestVerification:
    def test_reports_verify(self):
        assert verify_descriptor(h2_laurent_report(QQ, 7))
        assert verify_descriptor(h2_laurent_report(F5))
        assert verify_descriptor(h3_laurent_report(F5))
        assert verify_descriptor(h3_laurent_report(QQ, 7))
        assert verify_descriptor(stabilization_report(QQ, 2))
        assert verify_descriptor(stabilization_report(F5, 3))

    def test_tampered_factors_fail(self):
        bad = GroupDescriptor(
            label="x",
            provenance=[Provenance("k1mw_finite", {"q": 5}, {"free": 0, "cyclic": [5]})],
        )
        assert not verify_descriptor(bad)

    def test_unknown_op_fails(self):
        bad = GroupDescriptor(
            label="x",
            provenance=[Provenance("nonsense", {}, {"free": 0, "cyclic": []})],
        )
        assert not verify_descriptor(bad)

    def test_odd_part_of_zero_raises_instead_of_hanging(self):
        # run apart, so that an odd-part loop that never ends fails this
        # test by its timeout instead of stalling the suite
        script = (
            "from kmw.descriptor import GroupDescriptor, Provenance\n"
            "from kmw.errors import BadBound\n"
            "from kmw.reports import verify_descriptor\n"
            "d = GroupDescriptor(label='x', provenance=[Provenance(\n"
            "    'odd_part_of_integer', {'n': 0}, {'free': 0, 'cyclic': [1]})])\n"
            "try:\n"
            "    verify_descriptor(d)\n"
            "except BadBound:\n"
            "    print('BadBound')\n"
        )
        src = str(Path(kmw.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "BadBound\n"


class TestDescriptorShape:
    def test_json_schema(self):
        d = h2_laurent_report(QQ, 7)
        j = d.to_json()
        assert set(j) == {"free_rank", "cyclic_factors", "symbolic", "bound", "label", "provenance"}
        assert j["cyclic_factors"] == [2, 2, 4, 2, 6, 2]
        assert j["bound"] == 7

    def test_symbolic_json(self):
        s = SymbolicFactor("X", cite="why", order=3)
        assert s.to_json() == {"name": "X", "cite": "why", "order": 3}
        s2 = SymbolicFactor("Y", cite="why")
        assert s2.to_json() == {"name": "Y", "cite": "why"}

    def test_describe_output(self):
        d = h2_laurent_report(QQ, 3)
        assert d.describe().startswith("H_2(SL_2(Q[t,1/t])): Z^3")
        z = stabilization_report(F5, 2)
        assert z.describe().endswith(": 0")
