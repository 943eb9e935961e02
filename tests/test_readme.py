"""README.md's examples run against the current API.

The python blocks run in order in one namespace, as a reader would paste
them, and the ini block parses as a config file.
"""

import re
from pathlib import Path

from qknet import config

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run_in_order():
    code = blocks("python")
    assert code
    namespace = {}
    for k, block in enumerate(code):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_config_block_parses():
    (text,) = blocks("ini")
    cfg = config.parse_config(text)
    assert cfg.nodes_roles[2] == "signflip_attacker"


def test_readme_configuration_reference_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Configuration reference", 1)[1].split("\n## ", 1)[0]
    keys = set(re.findall(r"`([a-z_]+\.[a-z_]+)`", section))
    assert keys == set(config._KEY_OF.values())
    stated = dict(re.findall(r"`([a-z_]+\.[a-z_]+)`\s*\(([-+.0-9e]+)[ ;)]", section))
    assert len(stated) == 18
    defaults = config.ExperimentConfig()
    for key, text in stated.items():
        default = getattr(defaults, config._FIELD_OF[key])
        if isinstance(default, tuple):
            (default,) = default
        assert float(text) == default, key
