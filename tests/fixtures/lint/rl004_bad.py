"""Seeded RL004 violations: an import-time lock, a fork-crossing
closure capture, and a blocking call on the event loop."""

import threading
import time
from concurrent.futures import ProcessPoolExecutor

LOCK = threading.Lock()  # line 8: inherited by forked workers


def launch(open_service, db):
    service = open_service(db)
    return ProcessPoolExecutor(initializer=lambda: service)  # line 13: ships parent state


async def poll():
    time.sleep(0.1)  # line 17: stalls the event loop
