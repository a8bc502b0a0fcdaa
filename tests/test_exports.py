"""The package's public names."""

import kzclust


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from kzclust import *", namespace)
    assert [name for name in kzclust.__all__ if name not in namespace] == []
