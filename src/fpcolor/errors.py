class CapExceeded(RuntimeError):
    """An exponential routine was asked to run beyond its module's cap."""
