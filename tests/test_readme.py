import argparse
import re
import shlex
from pathlib import Path

import pytest

from nessgeom import cli, numerics

README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)
SHELL = "".join(re.findall(r"^```sh\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL))
# every ``nessgeom ...`` line of the shell blocks, continuation lines joined
COMMANDS = [shlex.split(line)[1:] for line in SHELL.replace("\\\n", " ").splitlines()
            if line.startswith("nessgeom ")]
INI = re.findall(r"^```ini\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_example_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == set(cli._SUBCOMMANDS)


def _parses(argv):
    try:
        cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the parser refuses: nessgeom {shlex.join(argv)}")
    # argparse takes a prefix of a flag; the docs spell every flag out
    flags = {flag for flag, _ in cli._SUBCOMMANDS[argv[0]][1]}
    assert {w.split("=")[0] for w in argv if w.startswith("--")} <= flags


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_readme_command_parses(index):
    # a flag renamed or dropped in the parser must not survive in the docs
    _parses(COMMANDS[index])


@pytest.mark.parametrize("index", range(len(INI)))
def test_readme_config_keys_are_flags(index, tmp_path):
    cfg = tmp_path / "job.ini"
    cfg.write_text(INI[index], encoding="utf-8")
    command = re.match(r"\[(\w+)\]", INI[index]).group(1)
    args = argparse.Namespace(config=str(cfg), command=command, grid=None)
    _parses([command, *cli._config_words(args)])


def test_readme_modes_path_numbers_are_the_codes():
    # the two Aberth sweep limits, as numerics sets them
    text = " ".join(README_TEXT.split())
    assert re.findall(r"within (\d+) sweeps", text) == [str(numerics._ABERTH_MAX_SWEEPS)]
    assert re.findall(r"after (\d+) Aberth sweeps", text) == [str(numerics._ABERTH_CHECK_SWEEPS)]
