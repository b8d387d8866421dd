"""README names only options that exist, and every option: every
``--flag`` of its "Command line" section is an option of some
``meshseg`` subcommand, every option of every subcommand appears there
under one of its option strings, and every ``key =`` line of its bench
config block is a key that ``parse_config`` accepts."""

import argparse
import dataclasses
import re
from pathlib import Path

from meshseg.bench import BenchConfig
from meshseg.cli import build_parser
from meshseg.denoise import PARAM_TYPES

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    """The text under ``## title``, up to the next second-level heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : None if end < 0 else end]


def _subcommands() -> dict:
    """{name: parser} of the ``meshseg`` subcommands."""
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("meshseg has no subcommands")


def test_readme_flags_are_cli_options():
    options = set()
    for sub in _subcommands().values():
        options.update(sub._option_string_actions)
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _section("Command line")))
    assert flags, "no --flag found in the Command line section"
    assert sorted(flags - options) == []


def test_cli_options_are_in_readme():
    """``-o`` counts for ``-o/--output``: README shows either one."""
    text = _section("Command line")
    missing = []
    for name, sub in _subcommands().items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction) or not action.option_strings:
                continue
            patterns = (rf"(?<![\w-]){re.escape(o)}(?![\w-])" for o in action.option_strings)
            if not any(re.search(pattern, text) for pattern in patterns):
                missing.append(f"{name} {'/'.join(action.option_strings)}")
    assert missing == []


def test_readme_bench_keys_are_config_keys():
    block = re.search(r"```ini\n(.*?)```", _section("Command line"), re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert keys, "no key = value line in the bench config block"
    fields = {f.name for f in dataclasses.fields(BenchConfig)} - {"sweep"}
    for key in keys:
        if key.startswith("sweep."):
            assert key[len("sweep."):] in PARAM_TYPES, key
        else:
            assert key in fields, key
