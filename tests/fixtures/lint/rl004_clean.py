"""Clean twin of rl004_bad: resources live inside __init__ and the
factory, and the async body awaits instead of blocking."""

import asyncio
import threading
from concurrent.futures import ProcessPoolExecutor


class Worker:
    def __init__(self):
        self.lock = threading.Lock()


def launch(open_service, db):
    return ProcessPoolExecutor(initializer=lambda: open_service(db))


async def poll():
    await asyncio.sleep(0.1)
