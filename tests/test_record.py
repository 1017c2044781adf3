"""The frozen-record decorator behind every value class, and what it saves at import.

Each case pins one property the classes had as frozen dataclasses:
construction, `__post_init__`, frozen fields, reprs, equality and hashing.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cislim
from cislim.cis import Cutoff, Stationary
from cislim.finspace import CtsMap, FinSpace, HomeoResult, _record, subspace
from cislim.homology import GF2ModuleSeq, InvarianceReport
from cislim.limit import CheckResult


def point():
    return FinSpace({"a"}, {"a": {"a"}})


class Counted:
    """A field value that counts the times it is compared."""

    def __init__(self, log):
        self.log = log

    def __eq__(self, other):
        self.log.append(other)
        return NotImplemented

    __hash__ = object.__hash__


class TestConstruction:
    def test_positional_keyword_and_mixed_give_equal_records(self):
        pts, mo = {"a"}, {"a": {"a"}}
        assert FinSpace(pts, mo) == FinSpace(points=pts, min_open=mo) == FinSpace(pts, min_open=mo)

    def test_a_field_with_a_class_default_may_be_left_out(self):
        assert CheckResult("cover", True).witnesses == ()
        assert CheckResult(name="cover", passed=True).witnesses == ()
        assert HomeoResult("none").map is None
        assert vars(CheckResult("cover", True)) == {"name": "cover", "passed": True, "witnesses": ()}

    def test_left_out_trailing_defaults_are_filled_without_binding(self):
        @_record
        class Triple:
            a: int
            b: int = 1
            c: int = 2

        @_record
        class Gap:
            a: int
            b: int = 1
            c: int

        def calls(cls, *args, **kwargs):
            seen = []
            sys.setprofile(lambda frame, event, arg: event == "call" and seen.append(frame.f_code.co_name))
            try:
                record = cls(*args, **kwargs)
            finally:
                sys.setprofile(None)
            return vars(record), seen

        assert calls(Triple, 0) == ({"a": 0, "b": 1, "c": 2}, ["__init__"])
        assert calls(Triple, 0, 5) == ({"a": 0, "b": 5, "c": 2}, ["__init__"])
        assert calls(Triple, 0, 5, 6) == ({"a": 0, "b": 5, "c": 6}, ["__init__"])
        assert calls(Triple, 0, c=6) == ({"a": 0, "b": 1, "c": 6}, ["__init__", "bind"])
        assert calls(Gap, 0, c=6) == ({"a": 0, "b": 1, "c": 6}, ["__init__", "bind"])
        with pytest.raises(TypeError, match=r"Gap\.__init__\(\) missing required argument 'c'$"):
            Gap(0)
        with pytest.raises(TypeError, match="takes 4 positional arguments but 5 were given"):
            Triple(0, 1, 2, 3)

    def test_a_record_without_fields_takes_no_argument(self):
        assert Cutoff() == Cutoff()
        with pytest.raises(TypeError, match="takes 1 positional argument"):
            Cutoff(1)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((frozenset(),), {}, "missing required argument 'min_open'"),
        ((), {"min_open": {}}, "missing required argument 'points'"),
        ((frozenset(), {}, 1), {}, "takes 3 positional arguments but 4 were given"),
        ((frozenset(), {}), {"points": frozenset()}, "multiple values for argument 'points'"),
        ((frozenset(),), {"min_open": {}, "bogus": 1}, "unexpected keyword argument 'bogus'"),
        ((frozenset(), {}), {"bogus": 1}, "unexpected keyword argument 'bogus'"),
    ])
    def test_a_missing_or_unknown_field_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=rf"^FinSpace\.__init__\(\) .*{message}"):
            FinSpace(*args, **kwargs)


class TestPostInit:
    def test_it_is_looked_up_on_every_construction(self, monkeypatch):
        # patched on the class after it is built, as the benchmark's tracer counts spaces
        built = []
        orig = FinSpace.__post_init__

        def counted_post_init(obj):
            built.append(obj)
            orig(obj)

        monkeypatch.setattr(FinSpace, "__post_init__", counted_post_init)
        s = FinSpace(["a", "b"], {"a": ["a"], "b": ["a", "b"]})
        sub, _ = subspace(s, {"b"})
        t = FinSpace(points={"a"}, min_open={"a": {"a"}})
        assert [id(x) for x in built] == [id(s), id(sub), id(t)]

    def test_it_runs_once_every_field_is_set(self):
        s = FinSpace(["a"], {"a": ["a"]})
        assert s.points == frozenset({"a"}) and s.min_open == {"a": frozenset({"a"})}

    def test_its_error_stops_the_construction(self):
        with pytest.raises(ValueError, match="missing from its own minimal open set"):
            FinSpace({"a"}, {"a": set()})


class TestFrozen:
    @pytest.mark.parametrize("name", ["points", "min_open", "other"])
    def test_assignment_and_deletion_raise(self, name):
        s = point()
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(s, name, frozenset())
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(s, name)
        assert s.points == frozenset({"a"})

    def test_kept_values_still_go_into_the_instance_dict(self):
        s = point()
        s.closure({"a"})
        assert "_closure_table" in vars(s)


class TestRepr:
    def test_it_names_every_field_as_a_dataclass_did(self):
        assert repr(CheckResult("cover", False, ("a", "b"))) == (
            "CheckResult(name='cover', passed=False, witnesses=('a', 'b'))"
        )
        assert repr(HomeoResult("none")) == "HomeoResult(status='none', map=None)"
        assert repr(Stationary(2)) == "Stationary(n0=2)" and repr(Cutoff()) == "Cutoff()"

    def test_a_class_body_repr_is_kept(self):
        s = point()
        assert repr(s) == "FinSpace(['a'])"
        assert repr(CtsMap(s, s, {"a": "a"})) == (
            "CtsMap(source=FinSpace(['a']), target=FinSpace(['a']), assignment={'a': 'a'})"
        )


class TestEquality:
    def test_equal_fields_give_equal_records_and_hashes(self):
        a, b = CheckResult("cover", True), CheckResult("cover", True)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != CheckResult("cover", False) and a != CheckResult("cover", True, ("x",))

    def test_the_hash_is_the_field_tuple_hash(self):
        assert hash(CheckResult("cover", True)) == hash(("cover", True, ()))
        assert hash(Stationary(3)) == hash((3,)) and hash(Cutoff()) == hash(())

    def test_records_of_other_classes_are_unequal(self):
        @_record
        class Other:
            n0: int

        assert Stationary(1) != Other(1) and Other(1) == Other(1)
        assert CheckResult("cover", True) != ("cover", True, ())

    def test_a_class_body_hash_is_kept(self):
        s = point()
        assert hash(s) == hash((s.points, frozenset(s.min_open.items())))
        m = CtsMap(s, s, {"a": "a"})
        assert hash(m) == hash((s, s, frozenset({("a", "a")})))
        assert m == CtsMap(point(), point(), {"a": "a"})

    @pytest.mark.parametrize("fields", [1, 2])
    def test_fields_compare_as_one_tuple_so_a_shared_value_is_not_walked(self, fields):
        @_record
        class Pair:
            left: object
            right: object = None

        log = []
        shared = Counted(log)
        args = (shared,) if fields == 1 else (shared, 0)
        assert Pair(*args) == Pair(*args) and not log
        assert Pair(*args) != Pair(Counted([]), *args[1:]) and log

    def test_comparing_runs_no_python_frame_beyond_eq(self):
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        a, b = point(), point()
        sys.setprofile(profile)
        try:
            equal = a == b
        finally:
            sys.setprofile(None)
        assert equal and calls == ["__eq__"]

    def test_eq_false_keeps_identity(self):
        a, b = GF2ModuleSeq((1,), ()), GF2ModuleSeq((1,), ())
        assert a != b and a == a and hash(a) == object.__hash__(a)
        r = InvarianceReport(1, 0, 0, True, True, [], ())
        assert r != InvarianceReport(1, 0, 0, True, True, [], ()) and hash(r) == object.__hash__(r)

    def test_contravariant_is_a_new_report_with_the_transposed_iso(self):
        r = InvarianceReport(1, 2, 2, True, False, [0b01, 0b11], ("w",))
        co = r.contravariant()
        assert type(co) is InvarianceReport and co is not r
        assert co.iso == [0b11, 0b10] and r.iso == [0b01, 0b11]
        assert (co.p, co.limit_dim, co.module_dim, co.iso_exists, co.iso_unique, co.witnesses) == (
            1, 2, 2, True, False, ("w",)
        )
        assert InvarianceReport(1, 0, 0, False, False, None, ()).contravariant().iso is None


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the stdlib modules the library imports come first, so only what the
    # library itself pulls in is counted
    probe = textwrap.dedent("""
        import sys
        import __future__, argparse, collections, functools, itertools, json
        import operator, random, types
        before = set(sys.modules)
        import cislim.cli
        print(sorted(set(sys.modules) - before))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cislim.__file__).parents[1]))
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = eval(res.stdout)
    assert "cislim.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
