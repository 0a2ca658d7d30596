import inspect

import trib11


def test_all_lists_exactly_the_public_names():
    # __init__.py names each export twice (import and __all__); keep the two in step
    assert [name for name in trib11.__all__ if not hasattr(trib11, name)] == []
    public = {
        name for name, value in vars(trib11).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(trib11.__all__)
    assert len(trib11.__all__) == len(set(trib11.__all__))
