"""Independent checks of the package's closed forms, used only by tests:
the structure-constant route to each family's flow (``oracles.structure``)
and the basis-level curvature oracle (``oracles.lie_bases``).

pytest puts ``tests/`` on ``sys.path``, so tests import this package as
``oracles``.
"""
