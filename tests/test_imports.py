"""No module in src, tests or demos imports a name it never uses, no private
top-level name in src goes unread, no config key goes unread outside
``config``, no CLI subcommand defines an option that its command function
never reads, only the gate-by-gate reference (``qsim`` + ``qkernel``) imports
the reference, and only ``engine`` reads which kind a noise model is."""

import argparse
import ast
import inspect
from dataclasses import fields
from pathlib import Path

from qknet import cli
from qknet.config import ExperimentConfig

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``label name`` for each private top-level name of a source that no
    source reads, by ``Name`` or ``Attribute``, outside its definition.

    Private means one leading underscore; dunder names are not private.
    """
    defined, read = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(label, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(
                    node.ctx, ast.Store):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return [f"{label} {name}" for label, name in defined if name not in read]


def test_unread_private_names_counts_reads_only():
    sources = {"a": ("_A = 1\n_B: int = 2\n_C = 3\n__v__ = 4\n"
                     "def _f():\n    return 0\nclass _K:\n    pass\n"),
               "b": "import a\nprint(a._B, _A)\na._C = 5\n"}
    assert unread_private_names(sources) == ["a _C", "a _f", "a _K"]


def test_every_private_name_in_src_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qknet").glob("*.py"))}
    found = unread_private_names(sources)
    assert not found, found


def unread_fields(names, sources: dict[str, str]) -> list[str]:
    """The names that no source reads as an attribute or spells as a string
    constant, as ``config.per_node("nodes_eta", i)`` does."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [name for name in names if name not in read]


def test_unread_fields_counts_attribute_reads_and_strings():
    sources = {"a": "cfg.run_seed = 1\nprint(cfg.run_budget)\n",
               "b": "cfg.per_node('nodes_eta', 0)\nnodes_roles = 2\n"}
    names = ["run_seed", "run_budget", "nodes_eta", "nodes_roles"]
    assert unread_fields(names, sources) == ["run_seed", "nodes_roles"]


def test_every_config_key_is_read_outside_config():
    """A key that only ``config`` reads is validated and then ignored."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "qknet").glob("*.py"))
               if path.name != "config.py"}
    found = unread_fields([f.name for f in fields(ExperimentConfig)], sources)
    assert not found, found


REFERENCE = {"qsim", "qkernel"}


def reference_imports(source: str) -> list[int]:
    """Lines of the module's imports that name ``qsim`` or ``qkernel``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = {p for a in node.names for p in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            parts = set((node.module or "").split("."))
            parts |= {a.name for a in node.names}
        else:
            continue
        if parts & REFERENCE:
            lines.append(node.lineno)
    return lines


def test_reference_imports_sees_every_import_form():
    source = ("from . import engine, qsim\nfrom .qkernel import kernel_eval\n"
              "import qknet.qsim\nfrom qknet.qkernel import NoiseModel\n"
              "from .engine import NoiseModel\nimport numpy\n")
    assert reference_imports(source) == [1, 2, 3, 4]


def test_only_the_reference_imports_the_reference():
    found = [f"{path.name} line {line}"
             for path in sorted((ROOT / "src" / "qknet").glob("*.py"))
             if path.stem not in REFERENCE
             for line in reference_imports(path.read_text(encoding="utf-8"))]
    assert not found, found


def noise_mode_reads(source: str) -> list[int]:
    """Lines that read ``.mode`` of a noise model: of a name or attribute
    ending in ``noise``, such as ``noise``, ``node.noise`` or ``eval_noise``.

    Run modes (``args.mode``, ``problem.mode``) are not noise models.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "mode"
                and isinstance(node.ctx, ast.Load)):
            base = node.value
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            if name.endswith("noise"):
                lines.append(node.lineno)
    return lines


def test_noise_mode_reads_sees_noise_models_only():
    source = ("noise.mode\nnode.noise.mode == 'global'\n"
              "f(problem.eval_noise.mode)\nargs.mode\nproblem.mode\n"
              "result.mode\nNoiseModel(mode='global')\n")
    assert noise_mode_reads(source) == [1, 2, 3]


def test_only_the_engine_reads_a_noise_models_kind():
    """`NoiseModel` turns its kind into the rates the simulators read."""
    found = [f"{path.name} line {line}"
             for path in sorted((ROOT / "src" / "qknet").glob("*.py"))
             if path.name != "engine.py"
             for line in noise_mode_reads(path.read_text(encoding="utf-8"))]
    assert not found, found


def test_a_run_loads_neither_qsim_nor_qkernel(fresh_python):
    proc = fresh_python("-c", (
        "import sys\n"
        "from qknet import runner\n"
        "from qknet.config import ExperimentConfig\n"
        "runner.run(ExperimentConfig(circuit_n_qubits=2, circuit_layers=2,"
        " run_budget=3))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('qknet'))))"))
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "qknet.engine" in loaded and "qknet.runner" in loaded
    assert not REFERENCE & {m.rsplit(".", 1)[-1] for m in loaded}, loaded


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
