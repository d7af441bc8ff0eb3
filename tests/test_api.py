import ast
import inspect

import paireffect

# helpers deleted for having no caller; they must not come back as exports
DELETED = ("EvalReport", "write_comparison_csv", "sweep_to_csv",
           "predict_outcome", "predict_ite", "asdict_pairing",
           "factual_loss", "matching_loss", "pair_loss_binary")


def _imported_names():
    """The names the package's relative import block binds."""
    tree = ast.parse(inspect.getsource(paireffect))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in paireffect.__all__
               if not hasattr(paireffect, name)]
    assert missing == []
    modules = [name for name in paireffect.__all__
               if inspect.ismodule(getattr(paireffect, name))]
    assert modules == []


def test_no_export_is_listed_twice():
    assert len(paireffect.__all__) == len(set(paireffect.__all__))
    # __all__ is derived: exactly the imported names, nothing else
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert sorted(paireffect.__all__) == sorted(imported)


def test_deleted_helpers_are_not_exported():
    assert [n for n in DELETED if n in paireffect.__all__] == []
    assert [n for n in DELETED if hasattr(paireffect, n)] == []
