"""The server process of the ``serve`` workload.

``python3 perfbench/serve_process.py WORKERS`` builds a sharded server with
``make_sharded_server(workers=WORKERS)`` and the default measure options on
an ephemeral localhost port, prints the port on stdout, and serves until
SIGTERM, then closes the server (which stops the shard workers) and exits 0.
"""

from __future__ import annotations

import signal
import sys

from common import import_repro


def main(argv) -> int:
    workers = int(argv[1])
    import_repro()
    from repro.service.server import make_sharded_server

    server, _pool = make_sharded_server("127.0.0.1", 0, workers=workers)
    signal.signal(signal.SIGTERM, lambda signum, frame: server.shutdown())
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
