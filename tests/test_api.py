"""The public surface: every exported name resolves, and the CLI reaches
the library through public names only."""

import ast
import importlib
import pkgutil
from pathlib import Path

import specwin
import specwin.cli


def test_every_exported_name_resolves():
    modules = [specwin] + [importlib.import_module(f"specwin.{info.name}")
                           for info in pkgutil.iter_modules(specwin.__path__)]
    assert len(modules) > 1
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], mod.__name__
    # the package re-exports only what its modules export
    owners = {name: getattr(getattr(specwin, name), "__module__", "")
              for name in specwin.__all__}
    unlisted = [name for name, owner in owners.items()
                if owner.startswith("specwin.")
                and name not in importlib.import_module(owner).__all__]
    assert unlisted == []


def test_cli_imports_no_private_name():
    """The CLI binds no underscored name of another specwin module: each of
    its imports from the package names public objects, under public names."""
    tree = ast.parse(Path(specwin.cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("specwin"))
               for alias in node.names
               if alias.name.startswith("_")
               or (alias.asname or "").startswith("_")]
    assert private == []
