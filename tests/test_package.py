"""The package's public surface."""
import types

import hardcore2d


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(hardcore2d.__all__)) == len(hardcore2d.__all__)
    for name in hardcore2d.__all__:
        assert not isinstance(getattr(hardcore2d, name), types.ModuleType), name
    for gone in ("Configuration", "MonotonePair", "sandwich_ordered", "engine", "mcmc"):
        assert gone not in hardcore2d.__all__
