import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import save_atlas
from debilandia.tiles import (
    AtlasError,
    TileAtlas,
    TileKind,
    TileType,
    atlas_default,
    classify_cell,
    slot_tile,
)


# kind -> (family, bit, slot, tile type)
EXPECTED_FACTS = {
    TileKind.TIP: ("tip", None, None, TileType.TIP),
    TileKind.TAPE_1: ("tape", 1, None, TileType.TAPE),
    TileKind.TAPE_0: ("tape", 0, None, TileType.TAPE),
    TileKind.READ_1: ("read", 1, 1, TileType.RULE),
    TileKind.READ_0: ("read", 0, 1, TileType.RULE),
    TileKind.STATUS_1: ("status", 1, 2, TileType.RULE),
    TileKind.STATUS_0: ("status", 0, 2, TileType.RULE),
    TileKind.WRITE_1: ("write", 1, 3, TileType.RULE),
    TileKind.WRITE_0: ("write", 0, 3, TileType.RULE),
    TileKind.CHANGE_1: ("change_status", 1, 4, TileType.RULE),
    TileKind.CHANGE_0: ("change_status", 0, 4, TileType.RULE),
    TileKind.MOVE_1: ("movement", 1, 5, TileType.RULE),
    TileKind.MOVE_0: ("movement", 0, 5, TileType.RULE),
}


def test_thirteen_kinds_with_expected_types():
    assert len(TileKind) == 13
    assert set(EXPECTED_FACTS) == set(TileKind)
    for kind, (family, bit, slot, tile_type) in EXPECTED_FACTS.items():
        assert (kind.family, kind.bit, kind.slot, kind.tile_type) == (family, bit, slot, tile_type), kind
    rules = [k for k in TileKind if k.tile_type is TileType.RULE]
    assert len(rules) == 10


def test_kind_codes_are_distinct_and_fit_four_bits():
    # position_key packs three codes into four bits each, with 0 for an empty cell
    codes = [kind.code for kind in TileKind]
    assert len(set(codes)) == len(codes)
    assert all(isinstance(code, int) and 1 <= code <= 15 for code in codes)


def test_slot_assignments():
    assert TileKind.READ_0.slot == TileKind.READ_1.slot == 1
    assert TileKind.STATUS_0.slot == TileKind.STATUS_1.slot == 2
    assert TileKind.WRITE_0.slot == TileKind.WRITE_1.slot == 3
    assert TileKind.CHANGE_0.slot == TileKind.CHANGE_1.slot == 4
    assert TileKind.MOVE_0.slot == TileKind.MOVE_1.slot == 5
    assert TileKind.TIP.slot is None
    assert TileKind.TAPE_1.slot is None
    for slot in range(1, 6):
        for bit in (0, 1):
            kind = slot_tile(slot, bit)
            assert kind.slot == slot and kind.bit == bit
    for kind in TileKind:
        if kind.tile_type is TileType.RULE:
            assert slot_tile(kind.slot, kind.bit) is kind


def test_default_atlas_distinct_and_nonempty():
    atlas = atlas_default()
    masks = list(atlas.patterns.values())
    assert len(masks) == 13
    assert len(set(masks)) == 13
    assert all(0 < m < 1 << 16 for m in masks)
    # tip pattern is non-empty and unlike the other twelve
    tip = atlas.patterns[TileKind.TIP]
    assert all(tip != m for k, m in atlas.patterns.items() if k is not TileKind.TIP)


def test_atlas_default_deterministic():
    a, b = atlas_default(), atlas_default()
    assert a.patterns == b.patterns


def test_atlas_default_is_loaded_once_and_read_only():
    atlas = atlas_default()
    patterns = atlas.patterns
    assert atlas_default() is atlas
    with pytest.raises(TypeError):
        atlas.patterns[TileKind.TIP] = 1
    with pytest.raises(AttributeError):
        atlas.patterns = {}
    assert atlas.patterns is patterns and len(patterns) == 13  # unchanged by the refused assignments
    masks = dict(atlas.patterns)
    copy = TileAtlas(masks)
    masks[TileKind.TIP] = masks[TileKind.TAPE_1]  # the atlas holds its own copy
    assert copy.patterns == atlas.patterns and copy == atlas
    masks[TileKind.TAPE_1] = atlas.patterns[TileKind.TIP]  # TIP and TAPE_1 swapped
    assert TileAtlas(masks) != atlas


def test_every_pattern_contains_cell_origin():
    # bottom-left alignment depends on bit (0, 0) being present everywhere
    atlas = atlas_default()
    for kind in TileKind:
        assert (0, 0) in atlas.points(kind), kind


def test_atlas_file_round_trip(tmp_path, atlas):
    path = tmp_path / "atlas.json"
    save_atlas(atlas, path)
    again = TileAtlas.load(path)
    assert again.patterns == atlas.patterns
    # bit-exact: saving the reloaded atlas reproduces the file
    save_atlas(again, tmp_path / "atlas2.json")
    assert (tmp_path / "atlas2.json").read_bytes() == path.read_bytes()


def test_atlas_file_strings_are_16_binary_chars(atlas):
    obj = atlas.to_json_obj()
    assert set(obj) == {k.value for k in TileKind}
    for text in obj.values():
        assert len(text) == 16
        assert set(text) <= {"0", "1"}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("tip"),
        lambda obj: obj.update(tip="0" * 16),  # empty pattern
        lambda obj: obj.update(tip=obj["tape_1"]),  # duplicate mask
        lambda obj: obj.update(tip="012"),  # malformed string
        lambda obj: obj.update(bogus="1" * 16),  # unknown name
    ],
)
def test_bad_atlas_files_rejected(atlas, mutate):
    obj = atlas.to_json_obj()
    mutate(obj)
    with pytest.raises(AtlasError):
        TileAtlas.from_json_obj(obj)


def test_classify_identity_for_all_kinds(atlas):
    for kind in TileKind:
        assert classify_cell(atlas.patterns[kind], atlas) is kind


def test_classify_empty_mask_is_junk(atlas):
    assert classify_cell(0, atlas) is None


def test_classify_single_bit_flips(atlas):
    # flipping any one bit of any pattern must give junk or another exact kind
    by_mask = {m: k for k, m in atlas.patterns.items()}
    for kind, mask in atlas.patterns.items():
        for bit in range(16):
            flipped = mask ^ (1 << bit)
            got = classify_cell(flipped, atlas)
            assert got is by_mask.get(flipped)
            assert got is not kind


def test_tape_1_with_extra_bit_is_junk(atlas):
    mask = atlas.patterns[TileKind.TAPE_1]
    extra = next(b for b in range(16) if not mask >> b & 1)
    assert classify_cell(mask | 1 << extra, atlas) is None


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_classify_is_pure(mask):
    atlas = atlas_default()
    assert classify_cell(mask, atlas) is classify_cell(mask, atlas)


def test_shipped_atlas_file_matches_default(atlas):
    from importlib import resources

    text = resources.files("debilandia").joinpath("data/atlas.json").read_text()
    assert TileAtlas.from_json_obj(json.loads(text)).patterns == atlas.patterns
