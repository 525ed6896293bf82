import jazzgen


def test_every_public_name_resolves():
    missing = [name for name in jazzgen.__all__ if not hasattr(jazzgen, name)]
    assert missing == []
    assert len(set(jazzgen.__all__)) == len(jazzgen.__all__)
