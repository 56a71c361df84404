"""The README's examples hold as written."""

import json
import re
from pathlib import Path

import pytest

from cvortho.cli import READS, SCHEMA, main, validate_config

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


def _read_by(field):
    """The READS rows that read a config field's leaves, those that read the same ones grouped, in table order; a group
    that reads only some of them names those."""
    leaves = [path for path in SCHEMA if field in (path, path.partition(".")[0])]
    groups = {}
    for name, row in READS.items():
        read = tuple(path.rpartition(".")[2] for path in leaves if path in row)
        if read:
            groups.setdefault(read, []).append(name)
    return "; ".join(", ".join(names) + ("" if len(read) == len(leaves) else f" ({', '.join(read)})")
                     for read, names in groups.items())


def test_config_table_read_by_column_is_the_reads_table():
    (table,) = re.findall(r"^\| field \| read by \| default \|\n\|[-|]*\|\n((?:\|.*\n)*)", README, flags=re.MULTILINE)
    rows = re.findall(r"^\| `([^`]*)` \| ([^|]*) \|", table, flags=re.MULTILINE)
    fields = [field for field in dict.fromkeys(path.partition(".")[0] for path in SCHEMA) if field != "experiment"]
    assert [field.partition(".")[0] for field, _ in rows] == fields
    assert {field: read_by for field, read_by in rows} == {field: _read_by(field) for field, _ in rows}
