import tempered_atlas
from tempered_atlas.weights import _Frozen


def test_every_exported_name_resolves():
    missing = [name for name in tempered_atlas.__all__ if not hasattr(tempered_atlas, name)]
    assert missing == []
    assert len(set(tempered_atlas.__all__)) == len(tempered_atlas.__all__)


def test_star_import():
    namespace = {}
    exec("from tempered_atlas import *", namespace)
    assert set(tempered_atlas.__all__) <= set(namespace)


def test_every_public_class_is_a_frozen_value():
    # Weight keeps its own fast constructor, ordering and arithmetic, with
    # read-only fields; every other public class but the errors is a _Frozen.
    values = [getattr(tempered_atlas, name) for name in tempered_atlas.__all__]
    classes = [v for v in values if isinstance(v, type)]
    loose = [c.__name__ for c in classes
             if not (issubclass(c, (Exception, _Frozen)) or c is tempered_atlas.Weight)]
    assert {"ThetaParabolic", "BilinearForm"} <= {c.__name__ for c in classes}
    assert loose == []
