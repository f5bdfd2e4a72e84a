import types

import volcd


def test_all_names_resolve_and_are_not_modules():
    for name in volcd.__all__:
        obj = getattr(volcd, name)
        assert not isinstance(obj, types.ModuleType), name
