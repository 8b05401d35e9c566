"""Serve a predictor over TCP, one JSON request or response per line.

Request:  {"id": <any>, "features": [[x1, x2, ...], ...]}
Response: {"id": <same>, "topk": [[[class, prob], ...], ...]}
Describe: {"id": <any>, "describe": true} -> {"id": <same>, "num_classes": K, "r": r}

A request carries a batch of feature rows, and its response carries one
list of pairs per row, in row order. That list holds the full vector
(probability-descending) for full-soft disclosure, exactly r pairs for
top-r, and a single [class, 1.0] pair for hard disclosure. Probabilities
are quantized to 9 significant digits before serialization, the same
precision as the in-process and cache backings, so every backing
discloses identical numbers.

A `RemotePredictor.query` is one connection and one round trip: all its
rows go in one request, unless that line would be longer than
MAX_LINE_BYTES, in which case the rows are split over several requests on
the same connection. A handle's first query sends the describe request
first, on that connection, and an endpoint that serves another class count
or r than the handle expects is a ContractError. Both ends disable Nagle's
algorithm and every line goes out in a single write, so no response waits
on a delayed ACK.

Malformed or mismatched requests get {"id", "error"} responses and the
connection stays open. A request line longer than MAX_LINE_BYTES gets
{"id": null, "error"} and the connection is closed, as is a connection
that sends nothing for IDLE_TIMEOUT_S seconds. The server serves at most
MAX_CONNECTIONS connections at once, each on its own thread; one more
gets a single {"id": null, "error"} line and is closed. The client reads
no response line longer than the longest answer its request can get.

`topk` is the one JSON form of a disclosed batch; `predictors` owns it.
"""

from __future__ import annotations

import json
import selectors
import socket
import socketserver
import threading

import numpy as np

from .errors import ContractError, StartupError, TransportError
from .predictors import PredictorHandle, _answer, _columns, _topk_columns, _topk_text, checked_features, resolve_r

MAX_LINE_BYTES = 1 << 20  # longest request line the server reads, newline included
IDLE_TIMEOUT_S = 30.0  # the server closes a connection idle for this long
CONNECT_TIMEOUT_S = 10.0  # the client's socket timeout, for connecting and for each read
MAX_CONNECTIONS = 64  # connections the server serves at once, one thread each
_REPR_BYTES = len(repr(-2.2250738585072014e-308))  # the longest text `repr` gives a float64
_ERROR_BYTES = 1 << 12  # room a response line leaves for an error text


class _LineHandler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_S  # applied to the connection by StreamRequestHandler.setup
    disable_nagle_algorithm = True  # TCP_NODELAY, set by StreamRequestHandler.setup

    def handle(self):
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES + 1):
                if len(raw) > MAX_LINE_BYTES:
                    error = {"id": None, "error": f"request line longer than {MAX_LINE_BYTES} bytes"}
                    self.wfile.write(json.dumps(error, sort_keys=True).encode("utf-8") + b"\n")
                    return
                line = raw.strip()
                if line:
                    self.wfile.write(self.server.answer(line) + b"\n")
        except OSError:  # idle timeout, or the client reset or went away
            return


class PredictionServer(socketserver.ThreadingTCPServer):
    """Threaded line-oriented server over a predictor handle.

    Stateless per request: each response depends only on its request, so
    concurrent connections cannot interfere.
    """

    daemon_threads = True
    allow_reuse_address = False
    request_queue_size = socket.SOMAXCONN  # socketserver's 5 stalls a burst of clients in SYN retransmits

    def __init__(self, handle: PredictorHandle, host: str = "127.0.0.1", port: int = 0):
        self._handle = handle
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)  # one per connection being served
        self._wake, self._stopped = socket.socketpair(), threading.Event()  # see `shutdown`
        try:
            super().__init__((host, port), _LineHandler)
        except (OSError, OverflowError) as exc:  # OverflowError: a port outside [0, 65535]
            raise StartupError(f"cannot bind {host}:{port}: {exc}") from exc

    @property
    def endpoint(self) -> tuple:
        return self.server_address[0], self.server_address[1]

    def process_request(self, request, client_address):
        """Serve the connection on a new thread, or, with MAX_CONNECTIONS
        already being served, send one error line and close it."""
        if not self._slots.acquire(blocking=False):
            error = {"id": None, "error": f"server busy: {MAX_CONNECTIONS} connections open, try again later"}
            try:
                request.sendall(json.dumps(error, sort_keys=True).encode("utf-8") + b"\n")
            except OSError:  # the client already went away
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def serve_forever(self, poll_interval=None):
        """Accept connections until `shutdown` wakes this loop; an idle server sleeps in `select`, with no poll."""
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake[0], selectors.EVENT_READ)
                while self._wake[0] not in [key.fileobj for key, _ in selector.select()]:
                    self._handle_request_noblock()
            self._wake[0].recv(1)
        finally:
            self._stopped.set()

    def shutdown(self):
        """Wake `serve_forever` with a byte over the socket pair, and wait until it has returned."""
        self._wake[1].send(b"\0")
        self._stopped.wait()

    def server_close(self):
        super().server_close()
        for end in self._wake:
            end.close()

    def answer(self, line: bytes) -> bytes:
        request_id = None
        try:
            obj = json.loads(line.decode("utf-8"))
            if not isinstance(obj, dict):
                raise ContractError("request must be a JSON object")
            request_id = obj.get("id")
            if obj.get("describe") is True:
                return json.dumps({"id": request_id, "num_classes": self._handle.num_classes, "r": self._handle.r},
                                  sort_keys=True).encode("utf-8")
            features = obj.get("features")
            if not isinstance(features, list) or not features:
                raise ContractError("request must carry a nonempty 'features' list of rows")
            classes, probs, _ = _answer(self._handle, features)  # the handle checks the features
            # {"id": <id>, "topk": <rows>}, keys sorted as json.dumps writes them
            text = '{"id": %s, "topk": %s}' % (json.dumps(request_id, sort_keys=True), _topk_text(classes, probs))
        except Exception as exc:  # noqa: BLE001 - every failure becomes a structured response
            text = json.dumps({"id": request_id, "error": str(exc)}, sort_keys=True)
        return text.encode("utf-8")

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def _row_batches(x: np.ndarray):
    """The rows of x as JSON texts, grouped so that each group's request
    line fits in MAX_LINE_BYTES."""
    # the text json.dumps(row) gives for finite floats, at half its cost
    rows = ["[" + ", ".join(map(repr, row)) + "]" for row in x.tolist()]
    # room left for rows once the keys and the longest id are written
    budget = MAX_LINE_BYTES - len('{"features": [], "id": }\n') - len(str(len(rows)))
    batch, size = [], -2
    for i, row in enumerate(rows):
        if len(row) > budget:
            raise ContractError(f"feature row {i} alone exceeds the {MAX_LINE_BYTES}-byte request line")
        if size + 2 + len(row) > budget:
            yield batch
            batch, size = [], -2
        batch.append(row)
        size += 2 + len(row)  # ", " before every row but the first
    if batch:
        yield batch


class RemotePredictor(PredictorHandle):
    """Client-side handle over a served predictor.

    The client must know what it is talking to (class count, disclosure
    mode, truncation level); its first query checks the class count and r
    against the endpoint's answer to the describe request.
    Its socket times out after CONNECT_TIMEOUT_S seconds. Connection
    failures (refused, timed out, reset) are retried once and then
    surface as an "unreachable" transport error. A reachable server
    that breaks the protocol (a mismatched or non-integer id, a line that
    is not JSON or longer than any answer, a close mid-query) is not
    retried: it surfaces at once as a transport error naming the fault.
    Structured error responses and malformed records surface as contract
    errors. By default it expects what `bbadapt serve` discloses by
    default: top-r at r = 1.
    """

    def __init__(self, host: str, port: int, num_classes: int, disclosure: str = "top-r",
                 r: int = 1, predictor_id: str = "remote"):
        self.host = host
        self.port = int(port)
        self.num_classes = int(num_classes)
        self.r = resolve_r(disclosure, r, self.num_classes)
        self._set_id(predictor_id)
        self._described = False  # whether the endpoint passed `_check_description`

    query = PredictorHandle.query  # on the class, where the benchmark wraps it

    def _disclosed(self, features) -> tuple[np.ndarray, np.ndarray, int]:
        x = checked_features(features)
        for _ in range(2):  # the first attempt and one retry
            try:
                return self._query_once(x)
            except TransportError as exc:  # a protocol fault: resending would not help
                raise TransportError(f"predictor at {self.host}:{self.port}: {exc}") from exc
            except OSError as exc:  # connect failure, timeout or reset
                last = exc
        raise TransportError(f"predictor at {self.host}:{self.port} unreachable: {last}") from last

    def _query_once(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        parts = []
        with socket.create_connection((self.host, self.port), timeout=CONNECT_TIMEOUT_S) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as responses:

                def ask(request: bytes, request_id, bound: int) -> bytes:
                    sock.sendall(request)
                    line = responses.readline(bound + 1)
                    if len(line) > bound:
                        raise TransportError(f"response to request {request_id!r} is longer than {bound} bytes")
                    return line

                if not self._described:
                    self._check_description(ask(b'{"describe": true, "id": "describe"}\n', "describe",
                                                self._response_bytes(0, 0)))
                for request_id, rows in enumerate(_row_batches(x)):
                    # {"features": [<rows>], "id": <request_id>}, keys sorted as the server writes them
                    request = b'{"features": [%s], "id": %d}\n' % (", ".join(rows).encode("ascii"), request_id)
                    line = ask(request, request_id, self._response_bytes(request_id, len(rows)))
                    parts.append(self._response_columns(line, request_id, len(rows)))
        if not parts:  # no rows, so no request: the answer `_columns` gives for no records
            return _columns([], self.num_classes, 0)
        return (*map(np.concatenate, zip(*parts)), self.r)

    def _response_bytes(self, request_id: int, rows: int) -> int:
        """The longest response line to a request of `rows` rows, newline
        included: each row's max(r, 1) pairs written "[%d, %r]" as `_topk_text`
        writes them, a class below num_classes, plus the envelope, with room
        for an error text in place of the rows."""
        pair = len("[, ], ") + len(str(self.num_classes - 1)) + _REPR_BYTES  # a pair and the ", " after it
        envelope = len('{"id": %d, "topk": []}\n' % request_id) + _ERROR_BYTES
        return envelope + rows * (len("[], ") + max(self.r, 1) * pair)

    def _check_description(self, line: bytes) -> None:
        """ContractError unless the endpoint serves this handle's class count at its r."""
        obj = self._response(line, "describe")
        served = obj.get("num_classes"), obj.get("r")
        if served != (self.num_classes, self.r) or {type(v) for v in served} != {int}:
            raise ContractError(f"predictor at {self.host}:{self.port} serves {served[0]!r} classes at "
                                f"r={served[1]!r}, expected {self.num_classes} classes at r={self.r}")
        self._described = True

    def _response_columns(self, line: bytes, request_id: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        topk = self._response(line, request_id).get("topk")
        if not isinstance(topk, list) or len(topk) != rows:
            raise ContractError(f"expected a 'topk' list of {rows} rows, got {str(topk)[:80]}")
        return _topk_columns(topk, self.r, self.num_classes)

    def _response(self, line: bytes, request_id) -> dict:
        """The JSON object answering request `request_id`, an int or "describe"; see the class docstring."""
        if not line:
            raise TransportError("connection closed mid-query")
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            raise TransportError(f"response to request {request_id!r} is not JSON: {line[:80]!r}") from None
        if not isinstance(obj, dict):
            raise TransportError(f"response to request {request_id!r} is not a JSON object: {line[:80]!r}")
        if obj.get("error"):
            raise ContractError(f"service rejected request {request_id!r}: {obj['error']}")
        if type(obj.get("id")) is not type(request_id) or obj.get("id") != request_id:
            raise TransportError(f"response id {obj.get('id')!r} does not match request {request_id!r}")
        return obj
