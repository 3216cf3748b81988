"""Hygienic equivalents — zero HYG findings."""

import time


def catch_named(channel):
    try:
        return channel.recv()
    except ConnectionError:
        return None


def fresh_accumulator(item, bucket=None):
    if bucket is None:
        bucket = []
    bucket.append(item)
    return bucket


def wall_measurement(run):
    start = time.perf_counter()           # allowed: wall measurement
    run()
    return time.perf_counter() - start


def simulated_timeout(clock):
    clock.advance(5.0)                    # the VirtualClock way
    return clock.now()


def seeded_bits(drbg):
    return drbg.random_bytes(16)          # the DRBG way
