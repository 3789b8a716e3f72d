import covdec


def test_every_exported_name_resolves():
    missing = [name for name in covdec.__all__ if not hasattr(covdec, name)]
    assert missing == []
