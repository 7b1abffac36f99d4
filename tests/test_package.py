"""The package's public names."""
import qffn


def test_every_export_resolves_once():
    assert len(set(qffn.__all__)) == len(qffn.__all__)
    missing = [name for name in qffn.__all__ if not hasattr(qffn, name)]
    assert missing == []
