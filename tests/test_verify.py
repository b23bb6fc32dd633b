"""Property suites over the corpus: failure recording, counts, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from gelfand import CertificationFailed, characters, random_algebra, standard_corpus
from gelfand.verify import FIXTURES, SAMPLES, norm_suite, verify_all, verify_item


def _item(name):
    return next(item for item in standard_corpus() if item.name == name)


def test_failed_character_search_is_recorded_not_raised(monkeypatch):
    exc = CertificationFailed("no generic element", retries=8)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("gelfand.verify.characters", boom)
    out = verify_item(_item("parity"))
    assert out["passed"] is False
    assert out["characters"] == {"passed": False, "error": exc.payload()}
    report = verify_all()
    assert report["passed"] is False
    assert all(item["characters"]["error"] == exc.payload() for item in report["items"])


def test_failed_suite_keeps_the_others(monkeypatch):
    exc = CertificationFailed("interpolation broke", residual=1.0)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("gelfand.verify.interpolate", boom)
    out = verify_item(_item("Z4"))
    assert out["separation"] == {"passed": False, "error": exc.payload()}
    assert out["characters"]["passed"] is True
    assert out["norms"]["passed"] is True
    assert out["involution"]["passed"] is True
    assert out["passed"] is False


@pytest.mark.parametrize("field", ["expected_characters", "expected_radical_dim"])
def test_wrong_expected_count_fails_the_character_suite(field):
    item = _item("jet-3")
    wrong = dataclasses.replace(item, **{field: getattr(item, field) + 1})
    assert verify_item(item)["characters"]["passed"] is True
    out = verify_item(wrong)
    assert out["characters"]["passed"] is False
    assert out["characters"]["count"] == 1
    assert out["characters"]["radical_dim"] == 2
    assert out["passed"] is False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_suite_skips_weighted_l1_for_a_unit_with_mixed_support(seed):
    alg = random_algebra(seed).algebra
    assert np.count_nonzero(np.abs(alg.unit) > 1e-12) > 1
    report = norm_suite(alg, characters(alg))
    assert report["kinds"] == 2
    assert report["skipped"] == ["user-weighted-l1"]
    assert [r["norm"] for r in report["reports"]] == ["regular-operator-norm",
                                                      "sup-on-characters"]
    assert report["passed"] is True


def test_norm_suite_lists_no_skip_with_a_single_support_unit():
    alg = _item("jet-3").algebra
    report = norm_suite(alg, characters(alg))
    assert report["kinds"] == 3 and report["skipped"] == []


@pytest.mark.parametrize("seed", [0x5EED, 7])
def test_verify_all_is_deterministic(seed):
    first = verify_all(seed)
    second = verify_all(seed)
    assert first == second
    assert json.dumps(first) == json.dumps(second)
    assert first["seed"] == seed and first["passed"] is True
    assert first["samples"] == SAMPLES == 250
    assert len(first["operator_fixtures"]) == FIXTURES == 4
    assert all(r["samples"] == SAMPLES
               for item in first["items"] for r in item["norms"]["reports"])
