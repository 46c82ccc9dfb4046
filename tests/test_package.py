import importlib

import fluxshape

LAYERS = ("pulse", "rcline", "synthesis", "robustness", "device", "extraction", "network")


def test_package_exports_every_layer_name_once():
    modules = [importlib.import_module(f"fluxshape.{layer}") for layer in LAYERS]
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert fluxshape.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(fluxshape, name) is getattr(module, name), name


def test_formats_is_not_exported():
    import fluxshape.formats

    assert not set(fluxshape.formats.__all__) & set(fluxshape.__all__)
