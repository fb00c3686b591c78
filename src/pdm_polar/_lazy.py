"""numpy, imported on first use.

A module that needs numpy only where it handles arrays binds
``np = LazyNumpy(globals())``.  The first attribute read on the stand-in
imports numpy and puts the module in its place, so every later read is a
plain global lookup, and a command that handles no array never imports numpy.
"""


class LazyNumpy:
    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name):
        import numpy

        self._namespace["np"] = numpy
        return getattr(numpy, name)
