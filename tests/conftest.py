"""Session setup shared by every test module.

When a property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest an explicit example. Where libcst
is installed, that import raises a DeprecationWarning from
``mypy_extensions``; with warnings as errors, from ``pyproject.toml`` or from
``-W`` flags, it becomes an internal error that ends the session and leaves
every later test unrun. Importing the module here, once and with warnings
ignored, caches it for the plugin. Where libcst is absent this does nothing.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
