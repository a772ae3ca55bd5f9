"""The settable-parameter guard (``tests/settable.py``).

Every defaulted parameter under ``src/repro`` is one some call outside
the tests sets, or one the allowlist names with its reason.  The first
tests run the guard on the repository; the others pin its rules on a
planted package, where what each call sets is known exactly.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from settable import (
    ALLOWLIST,
    TESTS_ROOT,
    caller_calls,
    check,
    load_allowlist,
    package_signatures,
)

_MODULE = textwrap.dedent(
    """
    from functools import partial


    def by_keyword(a, b=1, c=2):
        return a + b + c


    def by_position(a, b=1, c=2):
        return a + b + c


    def by_star(a, b=1, c=2):
        return a + b + c


    def by_partial(a, b=1, c=2):
        return a + b + c


    def by_forward(a, b=1, *, c=2):
        return a + b + c


    def unset(a, b=1):
        return a + b


    class Thing:
        def __init__(self, size=3, colour="red"):
            self.size = size

        def method(self, a=1, b=2):
            return a + b

        @staticmethod
        def helper(a=1, b=2):
            return a + b
    """
)

_CALLER = textwrap.dedent(
    """
    import functools

    from pkg.mod import Thing, by_forward, by_keyword, by_partial, by_position, by_star


    def run(options, values):
        by_keyword(0, c=5)
        by_position(0, 1)
        by_star(0, *values)
        functools.partial(by_partial, c=4)(0)
        by_forward(0, **options)
        Thing(4).method(9)
        Thing.helper(9)
        super().__init__(8, "blue")
    """
)


def _planted(tmp_path, allowlist=""):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(_MODULE)
    (tmp_path / "src" / "caller.py").write_text(_CALLER)
    signatures = package_signatures(package)
    calls = caller_calls([tmp_path / "src"])
    return check(signatures, calls, load_allowlist(allowlist))


def _flagged(tmp_path, allowlist=""):
    flagged, problems = _planted(tmp_path, allowlist)
    return {f"{p.qualname}({p.name})" for p in flagged}, problems


class TestTheRepository:
    def test_every_defaulted_parameter_is_set_or_allowlisted(self):
        result = subprocess.run(
            [sys.executable, str(TESTS_ROOT / "settable.py")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_the_allowlist_is_short_and_every_entry_has_a_reason(self):
        lines = [
            line
            for line in ALLOWLIST.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert 0 < len(lines) <= 8
        assert all(reason for reason in load_allowlist(ALLOWLIST.read_text()).values())


class TestRules:
    def test_a_keyword_sets_only_its_parameter(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert "by_keyword(b)" in flagged and "by_keyword(c)" not in flagged

    def test_a_position_sets_the_parameter_it_fills(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert "by_position(b)" not in flagged and "by_position(c)" in flagged

    def test_a_method_call_skips_self_and_a_static_call_does_not(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert "Thing.method(a)" not in flagged and "Thing.method(b)" in flagged
        assert "Thing.helper(a)" not in flagged and "Thing.helper(b)" in flagged

    def test_star_args_set_every_position_from_their_place(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert not {"by_star(b)", "by_star(c)"} & flagged

    def test_partial_is_a_call_of_its_function(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert "by_partial(c)" not in flagged and "by_partial(b)" in flagged

    def test_a_double_star_forward_sets_every_parameter(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert not {"by_forward(b)", "by_forward(c)"} & flagged

    def test_a_class_call_sets_its_init_and_super_init_sets_nothing(self, tmp_path):
        flagged, _ = _flagged(tmp_path)
        assert "Thing.__init__(size)" not in flagged
        assert "Thing.__init__(colour)" in flagged

    def test_a_flagged_parameter_is_described_by_place_and_default(self, tmp_path):
        flagged, _ = _planted(tmp_path)
        (unset,) = [p for p in flagged if p.qualname == "unset"]
        assert unset.describe() == f"pkg/mod.py:{unset.line} unset(b=1)"

    def test_an_allowlisted_parameter_is_not_flagged(self, tmp_path):
        flagged, problems = _flagged(tmp_path, "pkg/mod.py unset(b): kept for a reason\n")
        assert "unset(b)" not in flagged and problems == []


class TestAllowlistProblems:
    def test_an_entry_without_a_reason(self, tmp_path):
        flagged, problems = _flagged(tmp_path, "pkg/mod.py unset(b):\n")
        assert "unset(b)" not in flagged
        assert problems == ["pkg/mod.py unset(b): allowlisted without a reason"]

    @pytest.mark.parametrize(
        "entry",
        ["pkg/mod.py by_keyword(c): set", "pkg/mod.py unset(a): no default", "pkg/mod.py gone(b): x"],
        ids=["set-by-a-caller", "not-defaulted", "no-such-function"],
    )
    def test_a_stale_entry(self, tmp_path, entry):
        _, problems = _flagged(tmp_path, entry + "\n")
        target = entry.partition(":")[0]
        assert problems == [f"{target}: allowlisted but set by a caller or not defaulted"]

    def test_one_line_may_name_several_parameters(self):
        entries = load_allowlist("repro/x.py C.__init__(a, b): why\n# note\n\n")
        assert entries == {
            (("repro/x.py", "C.__init__"), "a"): "why",
            (("repro/x.py", "C.__init__"), "b"): "why",
        }
