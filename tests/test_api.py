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


def _imported_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every import in a source file: `import a.b` gives
    ("a.b", ""), `from a import b` gives ("a", "b"), relative modules keep
    their leading dots."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names += [(module, alias.name) for alias in node.names]
    return names


def test_spectral_owns_the_reflexive_blur():
    """One module builds the reflexive blur: only spectral imports scipy.fft,
    and problems takes the blur whole rather than the kernel steps it is
    built from."""
    package = Path(specwin.__file__).parent
    fft_users = sorted(
        path.name for path in package.glob("*.py")
        if any(module == "scipy.fft" or module.startswith("scipy.fft.")
               or (module == "scipy" and name == "fft")
               for module, name in _imported_names(path)))
    assert fft_users == ["spectral.py"]
    kernel_steps = {"_check_doubly_symmetric", "_first_column_spectrum",
                    "reflexive_kernel"}
    borrowed = [name for _, name in _imported_names(package / "problems.py")
                if name in kernel_steps]
    assert borrowed == []
