"""The package's public names: each layer's ``__all__``, listed once."""

import mechfield
from mechfield import errors, fields, mechanics, solver, vectors

LAYERS = (errors, vectors, solver, mechanics, fields)


def test_all_concatenates_the_layers_in_order():
    assert mechfield.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(mechfield.__all__)) == len(mechfield.__all__)


def test_every_public_name_resolves_to_its_layers_object():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(mechfield, name) is getattr(layer, name)
