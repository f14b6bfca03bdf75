import platoonnet


def test_every_exported_name_resolves():
    missing = [n for n in platoonnet.__all__ if not hasattr(platoonnet, n)]
    assert not missing
    assert len(set(platoonnet.__all__)) == len(platoonnet.__all__)
