"""Every annotation in the package names something its module can see."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import nilcomm


def _annotated(module):
    """The functions and classes module defines, and its classes' methods,
    static and class methods and property accessors."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, property):
                    yield from filter(None, (member.fget, member.fset))
                elif inspect.isfunction(getattr(member, "__func__", member)):
                    yield getattr(member, "__func__", member)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(nilcomm.__path__)))
def test_type_hints_resolve(name):
    module = importlib.import_module(f"nilcomm.{name}")
    found = list(_annotated(module))
    assert found
    for obj in found:
        typing.get_type_hints(obj)  # a name the module never imports raises NameError
