"""Endpoint stand-in: serves the biotriplets mock handler in its own process.

Usage: python perfbench/standin.py --script S --counts C [--delays CHAT,EMBED,PER_INPUT]

Binds a free port on 127.0.0.1 and prints "PORT <n>" on stdout, flushed,
then serves until stdin reaches end of file. On shutdown it writes the
request counts by kind, status and input count to the --counts file.

Counts are kept in memory: the mock's file log reopens its file on every
request, which would load this process's core. For the same reason the
mock's embedding, a hash per token, is computed once per distinct text:
the replies are unchanged, and a hosted endpoint's compute would not run
on the client's machine at all. The optional delays (ms) hold each reply
back the way a hosted endpoint's latency would: chat gets a fixed delay,
embeddings a fixed delay plus one per input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from collections import Counter

from biotriplets import mockserver
from biotriplets.mockserver import MockScript, MockServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--counts", required=True)
    parser.add_argument("--delays", default="0,0,0")
    args = parser.parse_args()
    chat_ms, embed_ms, per_input_ms = (float(x) for x in args.delays.split(","))
    # the handler looks the function up in its module on every request
    mockserver.mock_embedding = functools.lru_cache(maxsize=None)(mockserver.mock_embedding)

    server = MockServer(MockScript.from_file(args.script), port=0)
    base = server.httpd.RequestHandlerClass

    class DelayedHandler(base):
        def _send_json(self, status, body):
            if self.path.endswith("/embeddings"):
                delay = embed_ms + per_input_ms * len(body.get("data", ()))
            else:
                delay = chat_ms
            if delay > 0:
                time.sleep(delay / 1000.0)
            super()._send_json(status, body)

    server.httpd.RequestHandlerClass = DelayedHandler
    # a short poll keeps shutdown quick; MockServer.start polls every 0.5 s
    serving = threading.Thread(
        target=server.httpd.serve_forever, kwargs={"poll_interval": 0.02}
    )
    serving.start()
    print(f"PORT {server.httpd.server_address[1]}", flush=True)
    sys.stdin.read()  # parent closes our stdin to stop us
    server.stop()
    serving.join()

    counts: Counter = Counter()
    for entry in server.log.entries:
        counts[f"{entry['kind']}.status_{entry['status']}"] += 1
        counts[f"{entry['kind']}.requests"] += 1
        counts[f"{entry['kind']}.inputs"] += entry.get("n_inputs", 0)
    with open(args.counts, "w", encoding="utf-8") as fh:
        json.dump(dict(counts), fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
