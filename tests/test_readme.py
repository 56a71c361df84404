"""The README's examples hold as written."""

import json
import re
from pathlib import Path

from cvortho.cli import validate_config

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
