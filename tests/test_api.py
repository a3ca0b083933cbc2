import nvgames


def test_every_exported_name_resolves():
    assert [name for name in nvgames.__all__ if not hasattr(nvgames, name)] == []
