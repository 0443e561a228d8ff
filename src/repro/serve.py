"""``python -m repro.serve`` — start the concurrent AFD profiling server.

A thin executable alias of :mod:`repro.service.server`; see that module
for the endpoint table and payload schemas.

Example::

    python -m repro.serve --port 8765 --workers 2
"""

from repro.service.server import build_parser, main  # noqa: F401 - re-export

if __name__ == "__main__":
    import sys

    sys.exit(main())
