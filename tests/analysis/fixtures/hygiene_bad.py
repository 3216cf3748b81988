"""Seeded HYG violations."""

import os
import random
import time
from datetime import datetime


def swallow_everything(channel):
    try:
        return channel.recv()
    except:                              # HYG001: bare except
        return None


def shared_accumulator(item, bucket=[]):  # HYG002: mutable default
    bucket.append(item)
    return bucket


def shared_index(key, index={}):          # HYG002: mutable default
    index[key] = True
    return index


def factory_default(values=list()):       # HYG002: call factory default
    return values


def wall_clock_timeout():
    deadline = time.time() + 5            # HYG003: time.time
    time.sleep(0.1)                       # HYG003: time.sleep
    return deadline


def ambient_entropy():
    jitter = random.random()              # HYG003: random.*
    nonce = os.urandom(16)                # HYG003: os.urandom
    stamp = datetime.now()                # HYG003: datetime.now
    return jitter, nonce, stamp


def rogue_process_pool(jobs):
    from concurrent.futures import ProcessPoolExecutor  # HYG005
    import multiprocessing                               # HYG005  # noqa: F401
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(len, jobs))


def rogue_executor_attribute(jobs, futures_module):
    pool = futures_module.ProcessPoolExecutor(2)         # HYG005 (attribute)
    return list(pool.map(len, jobs))
