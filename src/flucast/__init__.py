"""Multi-country influenza forecasting toolkit."""

__version__ = "0.1.0"


class Error(ValueError):
    """Base of every flucast exception: bad input or a broken contract,
    reported by the CLI as one `error:` line."""
