"""Serve a predictor over TCP, one JSON record per line.

Request:  {"id": <any>, "features": [x1, x2, ...]}
Response: {"id": <same>, "topk": [[class, prob], ...]}

The topk list carries the full vector (probability-descending) for
full-soft disclosure, exactly r pairs for top-r, and a single
[class, 1.0] pair for hard disclosure. Probabilities are quantized to 9
significant digits before serialization, the same precision as the
in-process and cache backings, so every backing discloses identical
numbers. Malformed or mismatched requests get {"id", "error"} responses
and the connection stays open.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

import numpy as np

from .errors import ContractError, StartupError, TransportError
from .predictors import PredictorHandle, TopK, resolve_r


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            self.wfile.write(self.server.answer(line))
            self.wfile.write(b"\n")
            self.wfile.flush()


class PredictionServer(socketserver.ThreadingTCPServer):
    """Threaded line-oriented server over a predictor handle.

    Stateless per request: each response depends only on its request, so
    concurrent connections cannot interfere.
    """

    daemon_threads = True
    allow_reuse_address = False

    def __init__(self, handle: PredictorHandle, host: str = "127.0.0.1", port: int = 0):
        self._handle = handle
        try:
            super().__init__((host, port), _LineHandler)
        except OSError as exc:
            raise StartupError(f"cannot bind {host}:{port}: {exc}") from exc

    @property
    def endpoint(self) -> tuple:
        return self.server_address[0], self.server_address[1]

    def answer(self, line: bytes) -> bytes:
        request_id = None
        try:
            obj = json.loads(line.decode("utf-8"))
            request_id = obj.get("id")
            features = obj.get("features")
            if not isinstance(features, list) or not features:
                raise ContractError("request must carry a nonempty 'features' array")
            x = np.asarray([features], dtype=np.float64)
            if not np.isfinite(x).all():
                raise ContractError("features must be finite numbers")
            rec = self._handle.query(x)[0]
            pairs = [[int(c), float(p)] for c, p in zip(rec.classes, rec.probs)]
            payload = {"id": request_id, "topk": pairs}
        except Exception as exc:  # noqa: BLE001 - every failure becomes a structured response
            payload = {"id": request_id, "error": str(exc)}
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class RemotePredictor(PredictorHandle):
    """Client-side handle over a served predictor.

    The client must know what it is talking to (class count, disclosure
    mode, truncation level); the wire carries only ids and topk pairs.
    Connection failures are retried once and then surface as a transport
    error; structured error responses surface as contract errors.
    """

    def __init__(self, host: str, port: int, num_classes: int, disclosure: str = "top-r",
                 r: int | None = None, predictor_id: str = "remote", timeout: float = 10.0,
                 retries: int = 2):
        self.host = host
        self.port = int(port)
        self.num_classes = int(num_classes)
        self.r = resolve_r(disclosure, r, self.num_classes)
        self.predictor_id = predictor_id
        self.timeout = timeout
        self.retries = max(1, int(retries))

    def query(self, features) -> list[TopK]:
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ContractError(f"expected a 2-D feature batch, got shape {x.shape}")
        last = None
        for _ in range(self.retries):
            try:
                return self._query_once(x)
            except OSError as exc:
                last = exc
        raise TransportError(f"predictor at {self.host}:{self.port} unreachable: {last}") from last

    def _query_once(self, x: np.ndarray) -> list[TopK]:
        expected = max(self.r, 1)  # a hard label travels as one [class, 1.0] pair
        records = []
        with socket.create_connection((self.host, self.port), timeout=self.timeout) as sock:
            stream = sock.makefile("rwb")
            for i, row in enumerate(x):
                request = {"id": i, "features": [float(v) for v in row]}
                stream.write(json.dumps(request, sort_keys=True).encode("utf-8"))
                stream.write(b"\n")
                stream.flush()
                line = stream.readline()
                if not line:
                    raise TransportError("connection closed mid-query")
                obj = json.loads(line.decode("utf-8"))
                if obj.get("error"):
                    raise ContractError(f"service rejected request {i}: {obj['error']}")
                if obj.get("id") != i:
                    raise TransportError(f"response id {obj.get('id')!r} does not match request {i}")
                pairs = obj.get("topk")
                if not isinstance(pairs, list) or len(pairs) != expected:
                    raise ContractError(f"expected {expected} disclosed pairs, got {pairs!r}")
                classes = tuple(int(c) for c, _ in pairs)
                probs = tuple(float(p) for _, p in pairs)
                records.append(TopK(classes, probs, self.r, self.num_classes))
        return records
