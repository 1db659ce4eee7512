"""The verify suites pass on the scheme and report their fixed gates.
check_manufactured_orders runs in criterion 04 of test_acceptance."""

from planemhd import verify


def test_steady_state():
    check = verify.check_steady_state()
    assert check["passed"]
    assert check["threshold"] == 1e-13


def test_conservation():
    check = verify.check_conservation()
    assert check["passed"]
    assert check["threshold"] == 1e-12
    assert check["entropy_min_increment"] >= -check["entropy_tolerance"]


def test_oracle_equivalence():
    check = verify.check_oracle_equivalence()
    assert check["passed"]
    assert check["threshold"] == 1e-12
