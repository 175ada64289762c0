"""The A/B runner's seed lists, pair flags, win counts and claim rule, and
its in-process call mode: two trees loaded apart, bytes compared per call,
rounds alternated and wins counted.

scripts/ab.py is a script, not part of the package, so it is loaded by path.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


@pytest.mark.parametrize("items, expected", [
    (["101-110"], list(range(101, 111))),
    (["7"], [7]),
    (["1", "2", "3"], [1, 2, 3]),
    (["5", "8-9", "2"], [5, 8, 9, 2]),
])
def test_seeds(items, expected):
    assert ab.seeds(items) == expected


def _run(metrics, steal=0.0, probe=0.05, spread=0.04):
    return {"steal_share": steal, "probe_s": probe, "probe_spread": spread,
            "result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def _pairs(base, head, name="m"):
    return [{"base": _run({name: b}), "head": _run({name: h})} for b, h in zip(base, head)]


def test_wins_count_the_better_direction_and_not_ties():
    base = [10.0, 10.0, 10.0, 10.0]
    head = [9.0, 10.0, 11.0, 8.0]
    lower = ab.summarize(_pairs(base, head), {"m": "lower"})["m"]
    higher = ab.summarize(_pairs(base, head), {"m": "higher"})["m"]
    assert (lower["head_won"], lower["pairs"], lower["better"]) == (2, 4, "lower")
    assert (higher["head_won"], higher["pairs"], higher["better"]) == (1, 4, "higher")
    assert lower["ratio_median"] == pytest.approx(0.95)


def test_a_metric_not_in_the_benchmark_counts_lower_as_better():
    s = ab.summarize(_pairs([2.0, 2.0], [1.0, 1.0]), {})["m"]
    assert (s["better"], s["head_won"]) == ("lower", 2)


_BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_claim_holds_at_nine_wins_of_ten_with_the_medians_apart():
    head = [90.0] * 9 + [100.0]  # nine wins and a tie
    s = ab.summarize(_pairs(_BASE, head), {"m": "lower"})["m"]
    assert s["head_won"] == 9 and s["claim"]


def test_claim_fails_at_eight_wins_of_ten():
    head = [90.0] * 8 + [100.0, 103.0]
    s = ab.summarize(_pairs(_BASE, head), {"m": "lower"})["m"]
    assert s["head_won"] == 8 and not s["claim"]


def test_claim_fails_when_the_medians_differ_by_less_than_the_base_spread():
    # ten wins, but the base's quartiles lie 1.75 apart and the medians 0.6
    head = [b - 0.6 for b in _BASE]
    s = ab.summarize(_pairs(_BASE, head), {"m": "lower"})["m"]
    base_iqr = s["base"][2] - s["base"][0]
    assert s["head_won"] == 10 and s["base"][1] - s["head"][1] < base_iqr
    assert not s["claim"]


def test_claim_follows_the_metric_direction():
    higher = [b + 10.0 for b in _BASE]
    assert ab.summarize(_pairs(_BASE, higher), {"m": "higher"})["m"]["claim"]
    assert not ab.summarize(_pairs(_BASE, higher), {"m": "lower"})["m"]["claim"]


def test_pair_flags():
    assert ab.pair_flags({"base": _run({}), "head": _run({})}) == []
    far = {"base": _run({}, steal=0.0, probe=0.050), "head": _run({}, steal=0.2, probe=0.056)}
    assert ab.pair_flags(far) == ["steal differs", "probe differs"]
    near = {"base": _run({}, steal=None, probe=0.054), "head": _run({}, probe=0.052)}
    assert ab.pair_flags(near) == []


@pytest.mark.parametrize("spreads, flagged", [
    ((0.01, 0.01), True),   # 6% apart, each probe steady within 1%
    ((0.01, 0.07), False),  # the spreads add up to 8%: 6% is within them
    ((0.07, 0.0), False),
    ((0.02, 0.03), True),
])
def test_probe_flag_follows_the_probes_own_spread(spreads, flagged):
    pair = {"base": _run({}, probe=0.050, spread=spreads[0]),
            "head": _run({}, probe=0.053, spread=spreads[1])}
    assert (ab.pair_flags(pair) == ["probe differs"]) == flagged


def test_probe_takes_the_fastest_of_its_loops(monkeypatch):
    # loops of 5, 3, 4, 9, 3.5, 6, 3.2, 8 and 4.5 ms: the fastest is 3 ms,
    # the median 4.5 ms, a spread of half the fastest
    loops = [5.0, 3.0, 4.0, 9.0, 3.5, 6.0, 3.2, 8.0, 4.5]
    assert len(loops) == ab.PROBE_LOOPS
    ticks = iter([t for ms in loops for t in (0.0, ms / 1e3)])
    monkeypatch.setattr(ab.time, "perf_counter", lambda: next(ticks))
    fastest, spread = ab.probe()
    assert fastest == pytest.approx(3e-3) and spread == pytest.approx(0.5)


def test_probe_times_a_fixed_loop():
    fastest, spread = ab.probe()
    assert 0.0 < fastest < 10.0 and spread >= 0.0


_SIGMA = "return np.square(np.abs(1.0 - s))"


def test_loader_keeps_two_trees_apart(tmp_path):
    # the second tree's cross section is one ulp up, which only the contour
    # call passes through; each package runs its own modules
    src = Path(ab.ROOT) / "src" / "fanolap"
    trees = [shutil.copytree(src, tmp_path / side / "fanolap") for side in ("a", "b")]
    smatrix = trees[1] / "smatrix.py"
    text = smatrix.read_text(encoding="utf-8")
    assert text.count(_SIGMA) == 1
    smatrix.write_text(text.replace(_SIGMA, "return np.nextafter(np.square(np.abs(1.0 - s)), "
                                            "np.inf)"), encoding="utf-8")
    names = ("fanolap_ab_test_a", "fanolap_ab_test_b")
    try:
        pkgs = [ab.load_package(tree, name) for tree, name in zip(trees, names)]
        assert pkgs[0].contour.__module__ == names[0] + ".scan"
        assert pkgs[1].contour.__module__ == names[1] + ".scan"
        small = ab.CALL_SIZES[:1]
        calls = [ab.call_list(pkg, small) for pkg in pkgs]
        assert list(calls[0]) == list(ab.CALLS[:4])
        assert ab.differing(calls[0], calls[1]) == ["contour.8x8"]
        assert ab.differing(calls[0], ab.call_list(pkgs[0], small)) == []
    finally:
        for name in list(sys.modules):
            if name.startswith(names):
                del sys.modules[name]


def test_call_summary_counts_wins_on_faked_timings():
    base = [1.0, 2.0, 3.0, 4.0]
    head = [0.9, 2.0, 3.3, 3.0]  # won, tied, lost, won
    s = ab.call_summary(base, head)
    assert (s["head_won"], s["rounds"]) == (2, 4)
    assert s["min_ratio"] == pytest.approx(0.9)
    assert s["ratio_median"] == pytest.approx(0.95)  # of 0.9, 1.0, 1.1 and 0.75
    assert (s["base_min"], s["base_median"]) == (1.0, 2.5)
    assert (s["head_min"], s["head_median"]) == (0.9, 2.5)


def test_rounds_alternate_which_side_goes_first(monkeypatch):
    ran = []
    monkeypatch.setattr(ab, "CALL_SECONDS", 0.0)  # one call per round
    base, head = ab.alternate(lambda: ran.append("b"), lambda: ran.append("h"), 3)
    assert ran == ["b", "b", "h", "h", "b", "b", "h"]  # the first call sizes the rounds
    assert len(base) == len(head) == 3 and min(base + head) > 0.0
