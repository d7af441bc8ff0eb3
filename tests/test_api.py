import paireffect

# helpers deleted for having no caller; they must not come back as exports
DELETED = ("EvalReport", "write_comparison_csv", "sweep_to_csv",
           "predict_outcome", "predict_ite", "asdict_pairing")


def test_every_export_resolves():
    missing = [name for name in paireffect.__all__
               if not hasattr(paireffect, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    assert len(paireffect.__all__) == len(set(paireffect.__all__))


def test_deleted_helpers_are_not_exported():
    assert [n for n in DELETED if n in paireffect.__all__] == []
    assert [n for n in DELETED if hasattr(paireffect, n)] == []
