from types import ModuleType

import qmobius


def test_public_names():
    assert len(qmobius.__all__) == len(set(qmobius.__all__)) == 51
    assert "__version__" in qmobius.__all__
    for name in qmobius.__all__:
        assert not isinstance(getattr(qmobius, name), ModuleType), name
