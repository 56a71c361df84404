"""The README's examples hold as written."""

import json
import re
from pathlib import Path

import pytest

from cvortho.cli import main, validate_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language):
    (text,) = re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)
    return text


def test_python_example_runs():
    namespace = {}
    exec(_block("python"), namespace)
    assert abs(namespace["inner_product"](namespace["psi"], namespace["perp"])) < 1e-12


def test_json_example_config_validates():
    assert validate_config(json.loads(_block("json"))) == []


def test_run_synopsis_lists_the_run_options(capsys):
    (line,) = re.findall(r"^cvortho run .*$", README, flags=re.MULTILINE)
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[--[^]]*\]", line) == re.findall(r"\[--[^]]*\]", usage)
