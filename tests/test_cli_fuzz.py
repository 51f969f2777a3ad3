"""Property tests of the ``dexo`` command line over generated inputs.

Every valid config runs or exits 2 with one ``config error:`` line, and a
run that succeeds replays byte for byte; conservation and the coalition
bound are checked inside every run, so a run that broke either would exit
3 and fail here. A trace damaged in one line replays, exits 2 or reports a
mismatch, and never ends in a traceback.

Both properties are derandomized, so every suite run sees the same
examples. ``check_run`` and ``check_replay`` hold the assertions, so a
longer search can reuse them with its own hypothesis settings.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import tempfile
from ast import literal_eval
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexo import cli
from dexo.config import ScenarioConfig, format_config
from dexo.netsim import run_scenario, standard_scripts

SCRIPT_NAMES = tuple(standard_scripts(ScenarioConfig(1, 1, 0, 1)))
PREPROCESSING = ("clamp", "moving_average", "fixed_width")


@st.composite
def valid_configs(draw) -> ScenarioConfig:
    """Honest configs that pass validation, N <= 12, every knob."""
    n = draw(st.integers(1, 12))
    f = draw(st.integers(0, (n - 1) // 2))
    t = draw(st.integers(f + 1, n - f))
    value_max = draw(st.integers(0, 255))
    per_session = draw(st.integers(1, 300))
    config = ScenarioConfig(
        n_nodes=n,
        threshold=t,
        max_faulty=f,
        providers=draw(st.integers(1, 3)),
        datum_size_bytes=draw(st.integers(1, 16)),
        price=per_session * n,
        preprocessing=draw(st.sampled_from(PREPROCESSING)),
        window=draw(st.integers(1, 4)),
        value_min=draw(st.integers(0, value_max)),
        value_max=value_max,
        merged_query=draw(st.booleans()),
        shared_key=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        timeout_blocks=draw(st.integers(1, 12)),
        node_fee=draw(st.integers(0, per_session)),
    )
    config.validate()
    return config


def under_every_script(config: ScenarioConfig) -> list[ScenarioConfig]:
    """The config once per standard script; the script that needs the group
    key gets it."""
    return [
        replace(config, adversary=name,
                shared_key=config.shared_key or script.requires_shared_key)
        for name, script in standard_scripts(config).items()
    ]


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _assert_one_config_error(printed: str) -> None:
    assert printed.startswith("config error: ") and printed.count("\n") == 1, printed


def check_run(config: ScenarioConfig) -> bool:
    """``dexo run`` exits 0 or 2, and a run that exits 0 replays; True iff
    it ran."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_config(config))
        code, printed = _main(["run", path, "--out", tmp])
        assert code in (0, 2), printed
        if code == 2:
            _assert_one_config_error(printed)
            return False
        code, printed = _main(["replay", os.path.join(tmp, "fuzz.trace")])
        assert (code, printed) == (0, "replay: identical\n")
    return True


def features(config: ScenarioConfig) -> set:
    found = {config.adversary, config.preprocessing, ("merged", config.merged_query)}
    if len(config.priority_group()) >= 2:
        found.add("group of 2 or more")
    return found


REQUIRED_FEATURES = (
    set(SCRIPT_NAMES) | set(PREPROCESSING)
    | {("merged", True), ("merged", False), "group of 2 or more"}
)


def test_every_valid_config_runs_or_is_rejected():
    covered = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(valid_configs())
    def prop(template):
        for config in under_every_script(template):
            if check_run(config):
                covered.update(features(config))

    prop()
    assert REQUIRED_FEATURES <= covered, REQUIRED_FEATURES - covered


# ---------------------------------------------------------------- damaged traces

# small runs whose traces are damaged: every script family that replays a
# different path (disputes, refunds, a shared-key group of three)
BASE_CONFIGS = (
    ScenarioConfig(5, 3, 2, 2, datum_size_bytes=4, seed=1),
    ScenarioConfig(6, 4, 1, 2, datum_size_bytes=4, shared_key=True,
                   adversary="TAMPER_SHARES", seed=2),
    ScenarioConfig(5, 3, 2, 2, datum_size_bytes=4, adversary="SOURCE_NODE_COLLUSION",
                   seed=3),
    ScenarioConfig(7, 4, 3, 2, datum_size_bytes=4, shared_key=True,
                   adversary="SHARED_KEY_LEAK", seed=4),
)


@functools.cache
def base_trace(i: int) -> tuple[str, ...]:
    return tuple(run_scenario(BASE_CONFIGS[i]).serialize().splitlines())


@st.composite
def damaged_traces(draw) -> str:
    """A valid trace with one line deleted, duplicated or replaced by
    arbitrary text, half the time in the header that replay parses. Nothing
    written at or before the ``[script]`` header can set a config key, so no
    mutant asks for a larger run."""
    lines = list(base_trace(draw(st.integers(0, len(BASE_CONFIGS) - 1))))
    script_at = lines.index("[script]")
    at = draw(st.integers(0, script_at + 1) | st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if op == "delete":
        del lines[at]
    elif op == "duplicate":
        lines.insert(at, lines[at])
    else:
        text = st.text()
        if at <= script_at:
            text = text.filter(lambda s: "=" not in s)
        lines[at] = draw(text)
    return "\n".join(lines) + "\n"


def check_replay(text: str) -> int:
    """``dexo replay`` of any text exits 0, 2 or 3 without a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "damaged.trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, printed = _main(["replay", path])
    assert code in (0, 2, 3), printed
    if code == 2:
        _assert_one_config_error(printed)
    return code


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(damaged_traces())
def test_a_damaged_trace_replays_or_is_rejected(text):
    check_replay(text)


@pytest.mark.parametrize(
    "rule, corrupted",
    [(["stage3_reveal", "drop", 0], [1]), (["stage3_reveal", "withhold_key", 2], [1])],
    ids=["no such action", "target not corrupted"],
)
def test_a_trace_whose_script_cannot_fire_is_rejected(rule, corrupted):
    lines = list(base_trace(0))
    at = lines.index("[script]") + 1
    script = literal_eval(lines[at])
    lines[at] = repr({**script, "corrupted_nodes": corrupted, "rules": [rule]})
    assert check_replay("\n".join(lines) + "\n") == 2
