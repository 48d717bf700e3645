"""``python -m pi2cut`` runs the command line and exits with its code."""

import runpy
import sys

import pytest

from fixtures import PROBLEM_DIR


def run_module(monkeypatch, *args: str) -> int:
    monkeypatch.setattr(sys, "argv", ["pi2cut", *args])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("pi2cut", run_name="__main__")
    return stop.value.code


def test_language_exits_zero(monkeypatch, capsys):
    assert run_module(monkeypatch, "language", str(PROBLEM_DIR / "two_step.p2")) == 0
    assert "(hF r1)" in capsys.readouterr().out


def test_no_solution_exits_one(monkeypatch, capsys):
    path = str(PROBLEM_DIR / "unsolvable_shared_base.p2")
    assert run_module(monkeypatch, "solve", path) == 1
    assert capsys.readouterr().out.startswith("status")


def test_usage_error_exits_two(monkeypatch, capsys):
    assert run_module(monkeypatch, "solve") == 2
    assert capsys.readouterr().err.startswith("usage: pi2cut solve")
