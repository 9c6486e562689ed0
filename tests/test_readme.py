"""README.md names every config key and command-line option the CLI takes,
and lists no optional config key the CLI does not."""

import argparse
import os
import re

import symwedge.cli as cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_text():
    """README's prose: its text without the fenced code blocks."""
    with open(README, encoding="utf-8") as handle:
        return re.sub(r"```.*?```", "", handle.read(), flags=re.DOTALL)


def quoted(text):
    """Every span README shows in single backticks."""
    return set(re.findall(r"`([^`\n]+)`", text))


def option_strings(parser):
    """The option strings of ``parser`` and of each of its subcommands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= option_strings(sub)
    return found


def test_readme_names_every_config_key_and_option():
    shown = quoted(readme_text())
    assert sorted(cli._CONFIG_KEYS - shown) == []
    options = option_strings(cli._build_parser())
    assert {"--config", "--timings", "--x-file"} <= options
    assert sorted(options - shown) == []


def test_readme_lists_only_config_keys_as_optional():
    text = " ".join(readme_text().split())
    listed = re.search(r"Optional keys include (.*?)\.", text).group(1)
    keys = quoted(listed)
    assert keys and sorted(keys - cli._CONFIG_KEYS) == []
