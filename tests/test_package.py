"""The package's public names."""

import mforce


def test_all_is_sorted_unique_and_every_name_resolves():
    assert mforce.__all__ == sorted(set(mforce.__all__))
    assert [name for name in mforce.__all__ if not hasattr(mforce, name)] == []
