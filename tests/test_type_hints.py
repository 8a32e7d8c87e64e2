"""Every annotation in the package resolves to a type."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing

import pytest

import delstream

MODULES = sorted(
    f"delstream.{info.name}" for info in pkgutil.iter_modules(delstream.__path__)
)


def _type_checking_names(module) -> dict:
    """The names ``module`` imports under ``if TYPE_CHECKING:``, bound as a
    type checker binds them."""
    namespace = {"__name__": module.__name__, "__package__": module.__package__}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            code = ast.Module(body=node.body, type_ignores=[])
            exec(compile(code, module.__file__, "exec"), namespace)
    return {k: v for k, v in namespace.items() if not k.startswith("__")}


def _annotated(module):
    """(qualified name, object) for each function and class defined in
    ``module`` and each method, static or class method and property getter
    defined in those classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(func):
                    yield f"{name}.{attr}", func


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    localns = _type_checking_names(module) or None
    failures = []
    for qualname, obj in _annotated(module):
        try:
            typing.get_type_hints(obj, localns=localns)
        except Exception as err:  # noqa: BLE001 - every failure is reported
            failures.append(f"{qualname}: {err!r}")
    assert failures == []
