"""Tests of the benchmark itself: seeded inputs, the checks, span arithmetic.

    python3 -m pytest bench/test_bench.py

None of these import the library; they pin down that the benchmark's
inputs are reproducible and that its correctness check catches wrong
answers.
"""

import numpy as np
import pytest

import gen
import oracle
import spans
from run import HostSpeed, tail

WORKLOADS = (gen.LADDER, gen.RADICAL, gen.CLI)


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    return a == b


def _fingerprint(items):
    return [(i.name, i.kind, i.hard, i.data, i.expect) for i in items]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_item_lists_are_identical_for_a_seed(workload):
    first = _fingerprint(gen.make_items(workload, 7))
    assert _same(first, _fingerprint(gen.make_items(workload, 7)))
    other = _fingerprint(gen.make_items(workload, 8))
    assert [f[0] for f in other] == [f[0] for f in first]
    assert not _same(first, other)


def test_ladder_closures_are_fixed_and_their_targets_seeded():
    first, other = gen.ladder_items(7), gen.ladder_items(8)
    ops = [(a, b) for a, b in zip(first, other) if a.kind == "operator"]
    assert [a.name for a, _ in ops] == [name for name, *_ in gen.OPERATORS]
    for a, b in ops:
        assert np.array_equal(a.data["gram"], b.data["gram"])
        assert _same(a.data["generators"], b.data["generators"])
        assert not np.array_equal(a.data["targets"], b.data["targets"])


@pytest.mark.parametrize("kind", ["tensor", "mix"])
def test_host_speed_scales_to_the_reference(kind):
    host = HostSpeed(kind)
    ref = host.reference_s
    assert host.samples == [] and host.sample() > 0.0 and len(host.samples) == 1
    assert host.scale([ref / 2, ref, ref * 4]) == pytest.approx(1.0)
    assert host.scale([2 * ref]) == pytest.approx(0.5)


def test_hard_share_is_named_and_only_in_radical_mix():
    hard = [i.name for i in gen.make_items(gen.RADICAL, 0) if i.hard]
    assert hard == [name for name, _ in gen.HARD_SHARE]
    for workload in (gen.LADDER, gen.CLI):
        assert not any(i.hard for i in gen.make_items(workload, 0))


def _abelian(factors, seed=3):
    rng = np.random.default_rng(seed)
    return gen.abelian_tables(factors, rng.permutation(int(np.prod(factors))))


@pytest.mark.parametrize("factors", [(8,), (4, 2)])
def test_dft_table_passes_its_own_check(factors):
    c, unit, _, chars = _abelian(factors)
    fails, ordered = oracle.character_failures(c, unit, chars[::-1], expected=chars)
    assert fails == []
    assert np.array_equal(ordered, chars[::-1])


def test_check_flags_a_dropped_character():
    c, unit, _, chars = _abelian((8,))
    fails, _ = oracle.character_failures(c, unit, chars[1:], expected=chars)
    assert [k for k, _ in fails] == ["character-count"]


def test_check_flags_a_wrong_character():
    c, unit, _, chars = _abelian((8,))
    bad = chars.copy()
    bad[2] = bad[3]
    fails, _ = oracle.character_failures(c, unit, bad, expected=chars)
    assert fails and fails[0][0] == "character-values"
    bad[2, 1] += 1e-3
    fails, _ = oracle.character_failures(c, unit, bad, expected=chars)
    assert fails[0][0] == "character-residual"


def test_check_flags_a_wrong_radical_dimension():
    assert oracle.radical_failures(3, 3) == []
    assert [k for k, _ in oracle.radical_failures(2, 3)] == ["radical-dim"]


def test_hidden_jet_sum_table_is_multiplicative():
    blocks = (3, 2, 1)
    c, unit, q, offsets = gen.jet_sum(blocks, np.random.default_rng(0))
    fails, _ = oracle.character_failures(c, unit, q[offsets], expected=q[offsets])
    assert fails == []


def test_quotient_expectations_hold_by_construction():
    item = gen.quotient_item("q", [1.0, 1.0, 2.0], np.random.default_rng(0))
    assert item.expect["radical_dim"] == 1
    assert item.expect["nilpotent"] == [True, True, False, False]
    lower = item.data["lower"]
    # companion-matrix roots of t^3 + a2 t^2 + a1 t + a0 are the planted ones
    roots = np.roots(np.concatenate([[1.0], lower[::-1]]))
    assert np.allclose(np.sort(roots.real), [1.0, 1.0, 2.0], atol=1e-6)


def test_interpolation_and_nilpotency_checks():
    assert oracle.interpolation_failures([1.0, 2.0], np.array([1.0, 2.0 + 1e-9])) == []
    assert oracle.interpolation_failures([1.0, 2.0], np.array([1.0, 2.1]))
    fails = oracle.nilpotent_failures([True, True, False], [True, False, True])
    assert [k for k, _ in fails] == ["nilpotent-false-positive", "nilpotent-false-negative"]


def _item(name, hard=False):
    return gen.Item(name, "test", {}, hard=hard)


def test_known_defects_are_keyed_by_item_and_kind():
    positive = [("nilpotent-false-positive", "element 2 is not nilpotent")]
    negative = [("nilpotent-false-negative", "element 0 is nilpotent")]
    assert oracle.is_known(_item("jet-32"), positive)
    assert not oracle.is_known(_item("jet-32"), positive + negative)
    # a known kind on an item that passed when the benchmark was written
    assert not oracle.is_known(_item("jet-16a"), positive)
    assert oracle.is_known(_item("jet-16a", hard=True), positive + negative)


def _star_report(residual):
    return {"passed": False, "conjugation_closed": True, "span_check_passed": True,
            "star_roundtrip_residual": residual}


def test_star_roundtrip_is_known_only_near_its_tolerance():
    near = oracle.star_failures(_star_report(5e-12))
    far = oracle.star_failures(_star_report(1e-3))
    assert [k for k, _ in near] == ["star-roundtrip"]
    assert [k for k, _ in far] == ["star"]
    assert oracle.is_known(_item("op-d16-1gen"), near)
    assert not oracle.is_known(_item("op-d16-1gen"), far)
    assert not oracle.is_known(_item("op-d24-2gen"), near)


def test_span_self_time_and_character_counters():
    rows = [
        ["spectrum.characters", 0.0, 10.0, -1, "a", 3],
        ["spectrum.seeded_rng", 1.0, 2.0, 0, "a", 1],
        ["spectrum.seeded_rng", 2.0, 3.0, 0, "a", 1],
        ["spectrum.character_residual", 3.0, 4.0, 0, "a", None],
        ["spectrum.character_residual", 4.0, 5.0, 0, "a", None],
        ["spectrum.character_residual", 5.0, 6.0, 0, "a", None],
        ["spectrum.character_residual", 6.0, 7.0, 0, "a", None],
        ["spectrum.seeded_rng", 20.0, 21.0, -1, "a", 1],
    ]
    stats = spans.summarize(rows)
    assert stats["self_s"]["spectrum.characters"] == pytest.approx(4.0)
    assert stats["calls"]["spectrum.seeded_rng"] == 3
    assert stats["attempts"] == 2
    assert stats["accept_ratio"] == pytest.approx(3 / 4)


def test_tail_needs_ten_samples_beyond_it():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = list(range(1, 21))
    assert tail(values) == (10, 50.0)


@pytest.mark.parametrize("item", gen.radical_items(4)[:8], ids=lambda i: i.name)
def test_sample_elements_have_their_known_character_values(item):
    values = np.abs(item.expect["chars"] @ item.data["elements"].T)
    for col, nilpotent in zip(values.T, item.expect["nilpotent"]):
        assert np.allclose(col, 0.0 if nilpotent else 1.0, atol=1e-9)
