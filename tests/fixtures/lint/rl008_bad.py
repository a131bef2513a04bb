"""Seeded RL008 violations: a coroutine reaching sqlite3 through two
plain helpers, and a direct time.sleep."""

import sqlite3
import time


def fetch_rows(path, day):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT * FROM audit_log WHERE day = ?", (day,))
    finally:
        conn.close()


def load_page(path, day):
    rows = fetch_rows(path, day)
    return list(rows)


async def handle(request):
    return load_page(request.path, request.day)


async def poll(interval):
    time.sleep(interval)
