"""The package's public names are exactly the README's API list."""

import importlib
import re
import types
from pathlib import Path

import crx

README = Path(__file__).resolve().parent.parent / "README.md"

INTERNALS = {
    "crx.slp_ops": ("EdgeRuns", "OccRepr", "Fingerprints", "annotate_runs", "run_count"),
    "crx.model": ("RunLinkAnnotations", "canonical_grammar",
                  "lz78_factor_lengths"),
    "crx.suffix": ("MetaText",),
}


def readme_api() -> dict[str, list[str]]:
    """Module -> names, from the bullets of README's API section."""
    section = README.read_text(encoding="utf-8").split("\n## API\n")[1].split("\n## ")[0]
    api = {}
    for bullet in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        api[module] = names
    return api


def test_public_names_are_readme_api():
    api = readme_api()
    public = {n for n, v in vars(crx).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    listed = [n for names in api.values() for n in names]
    assert len(listed) == len(set(listed)) == 62
    assert public == set(listed)
    for module, names in api.items():
        mod = importlib.import_module(module)
        assert all(getattr(mod, n) is getattr(crx, n) for n in names)
    for module, names in INTERNALS.items():
        mod = importlib.import_module(module)
        for n in names:
            assert n not in public and hasattr(mod, n)
