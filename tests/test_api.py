import tempered_atlas


def test_every_exported_name_resolves():
    missing = [name for name in tempered_atlas.__all__ if not hasattr(tempered_atlas, name)]
    assert missing == []
    assert len(set(tempered_atlas.__all__)) == len(tempered_atlas.__all__)


def test_star_import():
    namespace = {}
    exec("from tempered_atlas import *", namespace)
    assert set(tempered_atlas.__all__) <= set(namespace)
