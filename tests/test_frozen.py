"""The read-only values of `debilandia.frozen`: copies, pickles, deletion and equality."""

import copy
import pickle

import pytest

from corpus import PING_PONG, spec_with
from debilandia.instances import Instance
from debilandia.tiles import atlas_default
from debilandia.tm import Rule

VALUES = {
    "Rule": Rule(0, 1, 1, 0, 1),
    "TmSpec": spec_with(PING_PONG, "11"),
    "Instance": Instance((1, 3, 8)),
    "TileAtlas": atlas_default(),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
def test_a_value_copies_and_pickles_but_loses_no_field(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
    with pytest.raises(AttributeError):
        delattr(value, value._fields[0])
    assert value != tuple(getattr(value, name) for name in value._fields)
