import warnings

# hypothesis imports this module, and libcst and mypy_extensions with it, only
# while it reports a failing example. mypy_extensions then raises a
# DeprecationWarning, which under `-W error` ends the session. Importing it
# once here, with that warning ignored, leaves nothing to warn later.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:  # hypothesis, or libcst, is not installed
    pass
