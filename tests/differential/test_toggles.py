"""On/off env-var parsing (:func:`repro._envflags.env_flag`, behind
``REPRO_SWEEP_CACHE``): the documented spellings parse, unset or blank
values keep the default, and garbage warns and falls back — it never
breaks an import.
"""

from __future__ import annotations

import pytest

from repro._envflags import env_flag


@pytest.mark.parametrize("raw,expect", [
    ("1", True), ("true", True), ("YES", True), (" on ", True),
    ("0", False), ("false", False), ("No", False), ("OFF", False),
])
def test_env_flag_parses_the_documented_spellings(
        monkeypatch, raw, expect):
    monkeypatch.setenv("REPRO_TEST_FLAG", raw)
    assert env_flag("REPRO_TEST_FLAG", not expect) is expect


@pytest.mark.parametrize("default", [True, False])
def test_env_flag_unset_and_empty_use_the_default(monkeypatch, default):
    monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
    assert env_flag("REPRO_TEST_FLAG", default) is default
    monkeypatch.setenv("REPRO_TEST_FLAG", "  ")
    assert env_flag("REPRO_TEST_FLAG", default) is default


def test_env_flag_garbage_warns_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
    with pytest.warns(RuntimeWarning, match="REPRO_TEST_FLAG='maybe'"):
        assert env_flag("REPRO_TEST_FLAG", True) is True
    with pytest.warns(RuntimeWarning):
        assert env_flag("REPRO_TEST_FLAG", False) is False
