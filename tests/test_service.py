import json
import socket

import numpy as np
import pytest

from bbadapt.errors import ContractError, StartupError, TransportError
from bbadapt.nets import SourceNet, train_source_net
from bbadapt.predictors import InProcessPredictor
from bbadapt.service import PredictionServer, RemotePredictor

from conftest import make_blobs


@pytest.fixture(scope="module")
def trained_net():
    rng = np.random.default_rng(42)
    x, y = make_blobs(40, [(-2, 0), (2, 0), (0, 2)], 0.4, rng)
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    train_source_net(net, x, y, epochs=8, batch_size=32, seed=1)
    return net


def _serve(handle):
    server = PredictionServer(handle)
    server.start_background()
    return server


@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("top-r", 2), ("hard", None)])
def test_remote_matches_in_process_exactly(trained_net, disclosure, r):
    local = InProcessPredictor(trained_net, disclosure=disclosure, r=r)
    server = _serve(local)
    host, port = server.endpoint
    try:
        remote = RemotePredictor(host, port, num_classes=3, disclosure=disclosure, r=r)
        x = np.random.default_rng(5).normal(0.0, 2.0, (17, 2))
        assert remote.query(x) == local.query(x)
    finally:
        server.shutdown()
        server.server_close()


def test_answer_malformed_json(trained_net):
    server = PredictionServer(InProcessPredictor(trained_net, disclosure="hard"))
    try:
        payload = json.loads(server.answer(b"{nope"))
        assert payload["id"] is None
        assert "error" in payload
    finally:
        server.server_close()


def test_answer_rejects_bad_features(trained_net):
    server = PredictionServer(InProcessPredictor(trained_net, disclosure="hard"))
    try:
        for req in ({"id": 4}, {"id": 4, "features": []}, {"id": 4, "features": [1.0, float("nan")]}):
            payload = json.loads(server.answer(json.dumps(req).encode()))
            assert payload["id"] == 4
            assert payload["error"]
    finally:
        server.server_close()


def test_connection_survives_bad_line(trained_net):
    # one malformed request must not poison the stream for the next one
    server = _serve(InProcessPredictor(trained_net, disclosure="hard"))
    host, port = server.endpoint
    try:
        with socket.create_connection((host, port), timeout=5.0) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"not json\n")
            stream.flush()
            first = json.loads(stream.readline())
            assert first["error"]
            stream.write(json.dumps({"id": 0, "features": [0.0, 0.0]}).encode() + b"\n")
            stream.flush()
            second = json.loads(stream.readline())
            assert "topk" in second and second["id"] == 0
    finally:
        server.shutdown()
        server.server_close()


class _BoomHandle:
    disclosure = "hard"
    r = 0
    num_classes = 3
    predictor_id = "boom"

    def query(self, features):
        raise RuntimeError("boom")


def test_error_response_raises_contract_error():
    server = _serve(_BoomHandle())
    host, port = server.endpoint
    try:
        remote = RemotePredictor(host, port, num_classes=3, disclosure="hard")
        with pytest.raises(ContractError, match="boom"):
            remote.query(np.zeros((1, 2)))
    finally:
        server.shutdown()
        server.server_close()


class _MisroutingServer(PredictionServer):
    def answer(self, line):
        payload = json.loads(super().answer(line))
        payload["id"] = 999
        return json.dumps(payload).encode()


def test_id_mismatch_raises_transport_error(trained_net):
    server = _MisroutingServer(InProcessPredictor(trained_net, disclosure="hard"))
    server.start_background()
    host, port = server.endpoint
    try:
        remote = RemotePredictor(host, port, num_classes=3, disclosure="hard")
        with pytest.raises(TransportError, match="999"):
            remote.query(np.zeros((1, 2)))
    finally:
        server.shutdown()
        server.server_close()


def test_unreachable_port_raises_transport_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    remote = RemotePredictor("127.0.0.1", port, num_classes=2, disclosure="hard", timeout=0.5)
    with pytest.raises(TransportError, match="unreachable"):
        remote.query(np.zeros((1, 2)))


def test_double_bind_raises_startup_error(trained_net):
    handle = InProcessPredictor(trained_net, disclosure="hard")
    first = PredictionServer(handle)
    _, port = first.endpoint
    try:
        with pytest.raises(StartupError):
            PredictionServer(handle, port=port)
    finally:
        first.server_close()


def test_remote_predictor_validation():
    with pytest.raises(ContractError):
        RemotePredictor("127.0.0.1", 1, num_classes=3, disclosure="sideways")
    with pytest.raises(ContractError):
        RemotePredictor("127.0.0.1", 1, num_classes=3, disclosure="top-r", r=None)
    with pytest.raises(ContractError):
        RemotePredictor("127.0.0.1", 1, num_classes=3, disclosure="top-r", r=4)
    remote = RemotePredictor("127.0.0.1", 1, num_classes=3, disclosure="full-soft")
    assert remote.r == 3
    with pytest.raises(ContractError):
        remote.query(np.zeros(2))

