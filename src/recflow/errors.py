"""The three failure categories, one per CLI exit code.

Every check that rejects a run raises one of these, and ``cli.main`` maps
the category to the exit code: a ``ConfigError`` to 2, a ``DataError`` (or
an ``OSError``) to 3 and a ``NumericError`` to 4. The message says which
check failed, so a new check needs no class of its own.
"""


class ConfigError(ValueError):
    """A config field, file or override that cannot be used: exit code 2."""

    def __init__(self, field_name, reason):
        super().__init__(f"config field {field_name!r}: {reason}")


class DataError(ValueError):
    """An input file, graph, corpus, schema catalog or checkpoint that the
    run cannot use: exit code 3."""


class NumericError(ArithmeticError):
    """A loss, gradient, update or index out of its valid range: exit
    code 4."""
