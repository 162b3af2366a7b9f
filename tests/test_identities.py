"""Claim registry: all decidable claims pass, externals never pass."""

import pytest

from x16class import identities
from x16class.errors import UnknownClaim
from x16class.identities import (
    _e6_residues,
    find_claim,
    registry,
    verify_all,
    verify_claim,
)

EXPECTED_PASS = {
    "sec5.coprimality_r", "sec5.coprimality_s", "sec5.quadric_param",
    "sec5.f1f2_combo_m", "sec5.f1f2_combo_n", "sec5.h16_symmetry",
    "sec5.c11_c13_scaling", "claim4", "sec5.f1_mod4",
    "claim9", "claim15", "claim21", "claim27", "sec3.g1g2",
    "claim3", "claim7", "sec5.base_points", "claim12", "sec5.c9_points",
    "sec5.c10_points", "claim18", "claim19", "claim25", "claim32",
}

EXPECTED_EXTERNAL = {
    "claim1", "claim2", "claim5", "claim6", "claim8", "claim10", "claim11",
    "claim16", "claim17", "claim20", "claim22", "claim23", "claim24",
    "claim26", "claim28", "claim29", "claim30", "claim31",
}


def test_registry_contents_and_statuses():
    results = {r.id: r.status for r in verify_all()}
    assert {cid for cid, st in results.items() if st == "pass"} == EXPECTED_PASS
    assert {cid for cid, st in results.items() if st == "external"} == EXPECTED_EXTERNAL
    assert "fail" not in results.values()


def test_kind_filters():
    results = verify_all()

    def of_kind(kind):
        return [r for r in results if r.kind == kind]

    assert {r.id for r in of_kind("congruence")} == {"claim4", "sec5.f1_mod4"}
    assert {r.id for r in of_kind("substitution")} == {
        "claim9", "claim15", "claim21", "claim27", "sec3.g1g2"
    }
    assert len(of_kind("membership")) == 10
    assert all(r.status == "pass" for r in of_kind("membership"))


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        find_claim("claim99")


def test_single_claim_lookup():
    r = verify_claim(find_claim("claim9"))
    assert r.status == "pass" and r.kind == "substitution"


def test_congruence_negative_control_wrong_modulus():
    """Mod 8 the two residue sets overlap, so the obstruction needs mod 16."""
    lhs, rhs = _e6_residues(8)
    assert lhs & rhs


def test_membership_negative_control():
    from x16class.identities import _oct9

    assert 3 * 3 != _oct9(0)  # (0, 3) is not on the curve


def test_determinism():
    a = [(r.id, r.status) for r in verify_all()]
    b = [(r.id, r.status) for r in verify_all()]
    assert a == b
