"""The public name list of the package."""

import types

import heatinv


def test_all_lists_each_public_name_once():
    public = {name for name, value in vars(heatinv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(heatinv.__all__) == len(set(heatinv.__all__))
    assert set(heatinv.__all__) == public
