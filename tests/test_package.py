import zerosum


def test_public_names_resolve():
    # `from zerosum import *` needs every exported name to exist
    assert len(set(zerosum.__all__)) == len(zerosum.__all__)
    assert [name for name in zerosum.__all__ if not hasattr(zerosum, name)] == []
