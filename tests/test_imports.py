"""No module in src, tests or demos imports a name it never uses, and no CLI
subcommand defines an option that its command function never reads."""

import argparse
import ast
import inspect
from pathlib import Path

from qknet import cli

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the module never reads.

    A name listed in the module's ``__all__`` counts as used, and
    ``from __future__`` imports are not names.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_imports_follows_the_module_rules():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\nprint(os.sep)\n")
    assert unused_imports(source) == ["line 3: system", "line 4: loads"]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)} {entry}"
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "\n".join(found)


def test_every_cli_option_is_read_by_its_command():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for name, command in sub.choices.items():
        source = inspect.getsource(getattr(cli, "_cmd_" + name.replace("-", "_")))
        unread += [f"{name} --{a.dest}" for a in command._actions
                   if a.dest != "help" and f"args.{a.dest}" not in source]
    assert not unread, unread
