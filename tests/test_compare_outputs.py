"""The number-by-number diff of ``tools/compare_outputs.py``."""

import importlib.util
import json
import sys

import pytest

from conftest import REPO_ROOT


@pytest.fixture
def compare(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts perfbench on the path
    spec = importlib.util.spec_from_file_location("compare_outputs", REPO_ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(lam, method="qr", created="a"):
    return json.dumps({"lambda": lam, "diagnostics": {"method": method, "bracket": [lam, 0.0], "conforming": True},
                       "metadata": {"created_utc": created}}, indent=2)


def test_the_diff_lists_each_number_that_moved_and_nothing_else(compare):
    old, new = _report(-0.21685519703001166), _report(-0.21685519703001077, created="b")
    assert compare.numeric_changes("report.json", old, new) == [
        ("lambda", -0.21685519703001166, -0.21685519703001077),
        ("diagnostics.bracket[0]", -0.21685519703001166, -0.21685519703001077),
    ]
    assert compare.numeric_changes("report.json", old, _report(-0.2, method="power")) is None  # a string moved
    assert compare.numeric_changes("report.json", old, old[:-1]) is None  # not JSON
    trace = "t,l2\n0.0,1.0\n0.5,0.75\n"
    assert compare.numeric_changes("trace.csv", trace, trace.replace("0.75", "0.7500000000000001")) == [
        ("[1].l2", 0.75, 0.7500000000000001)]
    assert compare.numeric_changes("trace.csv", trace, trace + "1.0,0.5\n") == ["~ (top level): length 2 -> 3"]
    assert compare.numeric_changes("stdout", "lambda -0.1\n", "lambda -0.2\n") is None


def test_the_listing_shows_the_relative_change(compare, tmp_path):
    for side, lam in (("old", -0.5), ("new", -0.25)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(_report(lam))
    assert compare._moved(str(tmp_path / "old"), str(tmp_path / "new"), "report.json") == [
        "  lambda: -0.5 -> -0.25 (+5.00e-01 relative)",
        "  diagnostics.bracket[0]: -0.5 -> -0.25 (+5.00e-01 relative)",
    ]


def test_a_report_that_gains_a_key_still_lists_its_moved_numbers(compare, tmp_path):
    old = json.loads(_report(-0.5))
    new = json.loads(_report(-0.25))
    new["diagnostics"]["root_find"] = [{"mu": -0.3}]  # a key added beside the moved numbers
    del new["diagnostics"]["conforming"]  # and one removed
    old, new = json.dumps(old), json.dumps(new)
    assert compare.numeric_changes("report.json", old, new) == [
        ("lambda", -0.5, -0.25),
        "- diagnostics.conforming",
        ("diagnostics.bracket[0]", -0.5, -0.25),
        "+ diagnostics.root_find",
    ]
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(text)
    assert compare._moved(str(tmp_path / "old"), str(tmp_path / "new"), "report.json") == [
        "  lambda: -0.5 -> -0.25 (+5.00e-01 relative)",
        "  - diagnostics.conforming",
        "  diagnostics.bracket[0]: -0.5 -> -0.25 (+5.00e-01 relative)",
        "  + diagnostics.root_find",
    ]


def test_a_list_that_changes_length_is_named_and_the_other_moves_still_listed(compare, tmp_path):
    old = json.loads(_report(-0.5))
    new = json.loads(_report(-0.25))
    old["essential"], new["essential"] = {"values": [0.5, 0.75, 1.0]}, {"values": [0.5, 1.0]}
    old["perron_order"], new["perron_order"] = 256, 130
    old, new = json.dumps(old), json.dumps(new)
    assert compare.numeric_changes("report.json", old, new) == [
        ("lambda", -0.5, -0.25),
        ("diagnostics.bracket[0]", -0.5, -0.25),
        "~ essential.values: length 3 -> 2",
        ("perron_order", 256, 130),
    ]
    for side, text in (("old", old), ("new", new)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "report.json").write_text(text)
    assert compare._moved(str(tmp_path / "old"), str(tmp_path / "new"), "report.json")[2:] == [
        "  ~ essential.values: length 3 -> 2",
        "  perron_order: 256 -> 130 (-4.92e-01 relative)",
    ]
    # a string that moved beside the list still makes the report incomparable
    assert compare.numeric_changes("report.json", old, new.replace('"qr"', '"power"')) is None
