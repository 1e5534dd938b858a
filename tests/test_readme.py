"""The bounds the README states are the ones the code keeps."""
import pathlib
import re

import pytest

from bridgeosc import _rk, cli, scenarios, truebeam

# the README's prose as one line: a stated bound may wrap
README = " ".join((pathlib.Path(__file__).resolve().parents[1]
                   / "README.md").read_text().split())
FIGURE = r"(\d[\d,]*(?:\^\d+)?)"  # 16, 1,000,000 or 10^7


def _value(figure: str) -> int:
    base, _, exponent = figure.replace(",", "").partition("^")
    return int(base) ** int(exponent or 1)


@pytest.mark.parametrize("pattern, bound", [
    (rf"`_rk\.MAX_STEPS` = {FIGURE} step attempts", _rk.MAX_STEPS),
    (rf"more than {FIGURE} points \(`cli\.MAX_SWEEP_POINTS`\)",
     cli.MAX_SWEEP_POINTS),
    (rf"batches of at most {FIGURE} \(`cli\.BATCH_POINTS`\)", cli.BATCH_POINTS),
    (rf"`truebeam\.MAX_SAMPLE_VALUES` = {FIGURE} values",
     truebeam.MAX_SAMPLE_VALUES),
    (rf"at most {FIGURE} block sets", _rk._SHARED_SETS),
], ids=["MAX_STEPS", "MAX_SWEEP_POINTS", "BATCH_POINTS", "MAX_SAMPLE_VALUES",
        "_SHARED_SETS"])
def test_a_bound_the_readme_states_is_the_code_s(pattern, bound):
    stated = re.findall(pattern, README)
    assert stated and all(_value(s) == bound for s in stated), stated


@pytest.mark.parametrize("key", sorted(scenarios._INT_RANGES))
def test_the_readme_states_each_int_key_range_once_as_the_code_s(key):
    stated = re.findall(rf"`{key}` {FIGURE}–{FIGURE}", README)
    assert [tuple(map(_value, s)) for s in stated] == [scenarios._INT_RANGES[key]]
