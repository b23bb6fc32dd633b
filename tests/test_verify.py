"""Property suites over the corpus: failure recording, counts, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from gelfand import (
    CertificationFailed,
    PropertyViolated,
    characters,
    random_algebra,
    standard_corpus,
)
from gelfand import spectrum, verify
from gelfand.algebra import Algebra
from gelfand.corpus import random_operator_fixture
from gelfand.verify import (
    FIXTURES,
    SAMPLES,
    norm_suite,
    operator_suite,
    verify_all,
    verify_item,
    verify_operator_fixture,
)


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


def test_norm_suite_draws_one_batch_per_kind(monkeypatch):
    # the contraction check and the homomorphism norm read the same samples
    alg = _item("jet-3").algebra
    space = characters(alg)
    counts = []
    draw = Algebra.random_elements

    def counted(self, count, rng):
        counts.append(count)
        return draw(self, count, rng)

    monkeypatch.setattr(Algebra, "random_elements", counted)
    report = norm_suite(alg, space)
    assert report["kinds"] == 3
    assert counts == [SAMPLES] * 3


def test_separation_suite_solves_once_for_indicators_and_targets(monkeypatch):
    alg = _item("Z6").algebra
    space = characters(alg)
    shapes = []
    indicators = []
    solve, indicator_element = spectrum.interpolate, spectrum.indicator_element

    def counted(algebra, space, targets):
        shapes.append(np.shape(targets))
        return solve(algebra, space, targets)

    def indicator(*args):
        indicators.append(args)
        return indicator_element(*args)

    monkeypatch.setattr(verify, "interpolate", counted)
    monkeypatch.setattr(spectrum, "indicator_element", indicator)
    report = verify._interpolation_suite(alg, space, seed=0x5EED, targets=10)
    assert report["passed"] is True
    assert shapes == [(6 + 10, 6)]
    assert indicators == []


def test_operator_fixtures_carry_the_operator_suite():
    report = verify_all(7)
    for k, out in enumerate(report["operator_fixtures"]):
        fix = random_operator_fixture(7 + k)
        body = operator_suite(fix.space, [fix.generator], seed=7)
        assert out == {"fixture_seed": 7 + k, **body}
        assert out["closure_dim"] == out["dim"] and out["passed"] is True


def test_operator_fixture_requires_a_full_closure(monkeypatch):
    def short(space, generators, **kwargs):
        body = operator_suite(space, generators, **kwargs)
        assert body["passed"] is True
        return dict(body, closure_dim=body["dim"] - 1)

    monkeypatch.setattr("gelfand.verify.operator_suite", short)
    assert verify_operator_fixture(0)["passed"] is False


def test_failed_operator_fixture_is_recorded_not_raised(monkeypatch):
    exc = PropertyViolated("closure broke", index=0, residual=1.0)

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr("gelfand.operators.generate_star_subalgebra", boom)
    out = verify_operator_fixture(0)
    assert out == {"fixture_seed": 0, "dim": random_operator_fixture(0).space.dim,
                   "passed": False, "error": exc.payload()}


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
