"""SEC006 through the sim-network stream holder.

Every client exchange goes through ``ClientStream.exchange_http`` or
``ClientStream.exchange_frame``, so those are transport sinks: a secret
handed to either fires SEC006.  The same calls with plain values are
silent.
"""


def leak_through_http_exchange(stream, private_key):
    stream.exchange_http(private_key)  # SEC006


def leak_through_frame_exchange(stream, session_key):
    stream.exchange_frame(session_key)  # SEC006


def plain_http_exchange(stream, request):
    return stream.exchange_http(request)


def plain_frame_exchange(stream, payload):
    return stream.exchange_frame(payload)
