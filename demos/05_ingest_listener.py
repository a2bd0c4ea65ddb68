"""Batch delivery over a socket: a client station flushing to the backend.

One thread runs the framed-envelope listener, the main thread plays a
vehicle whose local store is flushed over a flaky link.  Lost
acknowledgments cause retransmission; the store's UNIQUE message keys ignore
the re-sent rows, so the stored data stays exactly-once anyway
(backend_dedup is the reference filter for those keys).
"""

import random
import socket
import struct
import threading
import time

from situfuse import ScenarioConfig, SituationStore, generate
from situfuse.aggregators import LocalStore, TransportError, flush
from situfuse.cli import serve_ingest
from situfuse import wire


class FlakySocketTransport:
    """Sends every frame but pretends the acknowledgment sometimes got lost."""

    def __init__(self, host, port, rng):
        self.address = (host, port)
        self.rng = rng
        self.sent = 0

    def send(self, frame: bytes) -> bool:
        with socket.create_connection(self.address) as sock:
            sock.sendall(struct.pack("<I", len(frame)) + frame)
        self.sent += 1
        if self.rng.random() < 0.4:
            raise TransportError("acknowledgment lost")
        return True


rng = random.Random(1)  # seeded so the first acknowledgment gets lost
store = SituationStore(":memory:")
ready = threading.Event()
address = {}


def on_ready(sockname):
    address["port"] = sockname[1]
    ready.set()


report_holder = {}
server = threading.Thread(
    target=lambda: report_holder.update(
        report=serve_ingest(store, "127.0.0.1", 0, connections=64, ready_callback=on_ready)
    )
)
server.daemon = True
server.start()
ready.wait()

print(f"backend listening on 127.0.0.1:{address['port']}")

# a vehicle station with a minute of records pending
cfg = ScenarioConfig(seed=9, duration_s=8.0, vehicle_count=4, pedestrian_count=0)
_, envelopes = generate(cfg)
local = LocalStore(station=cfg.vut_station)
for env in envelopes:
    if env.meta.station == cfg.vut_station:
        for record in wire.absolute_records(env):
            local.append(record)
print(f"station {local.station} has {len(local.pending)} records pending")

transport = FlakySocketTransport("127.0.0.1", address["port"], rng)
attempts = 0
while local.pending:
    attempts += 1
    outcome = flush(local, transport)
    state = "failed, will retry" if outcome.failed else "acknowledged"
    print(f"flush #{attempts}: {outcome.delivered_records} records {state}")

# the client returns before the listener has drained its sockets
stats = store.stats()
while True:
    time.sleep(0.2)
    again = store.stats()
    if again == stats:
        break
    stats = again

unique = sum(count for table, count in stats.items() if table.startswith("raw_"))
print(f"\nlink carried {transport.sent} frames for {unique} unique rows"
      " (retransmitted duplicates were filtered on ingest):")
for table, count in stats.items():
    if count:
        print(f"  {table:16s} {count}")
store.close()
