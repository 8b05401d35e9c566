import json
import queue
import socket
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbadapt.cli import build_parser
from bbadapt.errors import ContractError, StartupError, TransportError
from bbadapt.nets import SourceNet, train_source_net
from bbadapt.predictors import (CachedPredictor, InProcessPredictor, TopK, _answer, _records, checked_features,
                                read_cache, write_cache)
from bbadapt import predictors, service
from bbadapt.service import PredictionServer, RemotePredictor

from conftest import JSON, NUMBER, assert_valid_records, make_blobs


@pytest.fixture(scope="module")
def trained_net():
    rng = np.random.default_rng(42)
    x, y = make_blobs(40, [(-2, 0), (2, 0), (0, 2)], 0.4, rng)
    net = SourceNet(2, 3, hidden=(16,), rng=np.random.default_rng(0))
    train_source_net([net], [x], [y], [1], epochs=8, batch_size=32)
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


@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("top-r", 2), ("hard", None)])
def test_every_backing_answers_a_list_of_topk(trained_net, tmp_path, disclosure, r):
    """Callers index the records of a query and compare them with ==, so
    every backing returns a list of TopK of Python ints and floats, equal
    row by row to the in-process records."""
    x = np.random.default_rng(6).normal(0.0, 2.0, (23, 2))
    rows = np.random.default_rng(7).choice(23, 9, replace=False)
    local = InProcessPredictor(trained_net, disclosure=disclosure, r=r)
    reference = local.query(x)
    write_cache(str(tmp_path / "cache.json"), local, x)
    server = _serve(local)
    try:
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure=disclosure, r=r)
        answers = [(local.query(x[rows]), rows), (remote.query(x[rows]), rows),
                   (read_cache(str(tmp_path / "cache.json"), 3).query(x), range(23))]
    finally:
        server.shutdown()
        server.server_close()
    for records, index in answers:
        assert type(records) is list and records == [reference[j] for j in index]
        for rec in records:
            assert type(rec) is TopK and type(rec.classes) is tuple and type(rec.probs) is tuple
            assert {type(c) for c in rec.classes} == {int} and {type(p) for p in rec.probs} == {float}


def test_a_default_client_reads_a_served_predictor_with_default_settings(trained_net):
    # `bbadapt serve` with its default flags, read by a client given nothing but the class count
    args = build_parser().parse_args(["serve", "--checkpoint", "source.json"])
    local = InProcessPredictor(trained_net, disclosure=args.disclosure, r=args.r)
    server = _serve(local)
    try:
        x = np.random.default_rng(8).normal(0.0, 2.0, (11, 2))
        assert RemotePredictor(*server.endpoint, 3).query(x) == local.query(x)
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
        for req in ({"id": 4}, {"id": 4, "features": []}, {"id": 4, "features": [1.0, float("nan")]},
                    {"id": 4, "features": [[1.0, float("nan")]]}, {"id": 4, "features": [[1.0, 2.0], [1.0]]},
                    {"id": 4, "features": [[]]}):
            payload = json.loads(server.answer(json.dumps(req).encode()))
            assert payload["id"] == 4
            assert payload["error"]
    finally:
        server.server_close()


def test_answer_rejects_strings_booleans_and_non_objects(trained_net):
    # numpy reads "1.5" as 1.5 and true as 1.0, and a JSON value that is no object has no "id"
    server = PredictionServer(InProcessPredictor(trained_net, disclosure="hard"))
    try:
        for features in (b'[["1.5", true]]', b'[[1.5, true]]', b'[["1.5", 2.0]]', b'[[false, 0.5]]'):
            payload = json.loads(server.answer(b'{"id": 1, "features": %s}' % features))
            assert payload == {"id": 1, "error": "features must be numbers, not strings or booleans"}
        for line in (b"[1, 2]", b'[{"id": 1, "features": [[1.5, 0.5]]}]', b"3", b'"features"', b"null"):
            assert json.loads(server.answer(line)) == {"id": None, "error": "request must be a JSON object"}
    finally:
        server.server_close()


@pytest.mark.parametrize("cached", [False, True])
def test_answer_checks_features_once(trained_net, monkeypatch, cached):
    # the handle checks a request's features; the server does not check them again
    x = [[0.5, -1.0], [2.0, 0.25]]
    handle = InProcessPredictor(trained_net, disclosure="top-r", r=2)
    if cached:
        handle = CachedPredictor(*_answer(handle, np.array(x)), 3, "c")
    calls = []

    def counted(features):
        calls.append(features)
        return checked_features(features)

    monkeypatch.setattr(predictors, "checked_features", counted)
    monkeypatch.setattr(service, "checked_features", counted)
    server = PredictionServer(handle)
    try:
        assert json.loads(server.answer(json.dumps({"id": 1, "features": x}).encode()))["id"] == 1
        assert calls == [x]
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
            stream.write(json.dumps({"id": 0, "features": [[0.0, 0.0]]}).encode() + b"\n")
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


def test_unreachable_port_raises_transport_error(monkeypatch):
    monkeypatch.setattr(service, "CONNECT_TIMEOUT_S", 0.5)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    remote = RemotePredictor("127.0.0.1", port, num_classes=2, disclosure="hard")
    with pytest.raises(TransportError, match="unreachable"):
        remote.query(np.zeros((1, 2)))


def test_refused_connection_is_tried_twice_with_the_connect_timeout(monkeypatch):
    attempts = []

    def refuse(address, timeout):
        attempts.append((address, timeout))
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr(service.socket, "create_connection", refuse)
    remote = RemotePredictor("127.0.0.1", 9, num_classes=2, disclosure="hard")
    with pytest.raises(TransportError, match="unreachable"):
        remote.query(np.zeros((1, 2)))
    assert attempts == [(("127.0.0.1", 9), service.CONNECT_TIMEOUT_S)] * 2


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
    for bad in (np.nan, np.inf):  # rejected before connecting: nothing listens on port 1
        with pytest.raises(ContractError, match="finite"):
            remote.query(np.array([[0.0, 0.0], [bad, 0.0]]))


class _RecordingServer(PredictionServer):
    """Records every connection it accepts, every request line it answers
    and every connection it closes."""

    def __init__(self, handle):
        super().__init__(handle)
        self.connections = []
        self.lines = []
        self.closed = queue.Queue()

    def finish_request(self, request, client_address):
        self.connections.append(client_address)
        super().finish_request(request, client_address)

    def answer(self, line):
        self.lines.append(line)
        return super().answer(line)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.put(request)


def _recording(handle):
    server = _RecordingServer(handle)
    server.start_background()
    return server


def test_query_is_one_request_on_one_connection(trained_net):
    local = InProcessPredictor(trained_net, disclosure="top-r", r=2)
    server = _recording(local)
    try:
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure="top-r", r=2)
        x = np.random.default_rng(6).normal(0.0, 2.0, (40, 2))
        assert remote.query(x) == local.query(x)
        assert len(server.connections) == 1
        assert len(server.lines) == 1
        assert json.loads(server.lines[0]) == {"id": 0, "features": x.tolist()}
    finally:
        server.shutdown()
        server.server_close()


class _FaultyServer(_RecordingServer):
    """Answers every request line outside the protocol: with the wrong id,
    with a line that is not JSON, or by closing the connection."""

    fault = "id"

    def answer(self, line):
        reply = super().answer(line)
        if self.fault == "close":
            raise ConnectionResetError("closing without an answer")
        if self.fault == "not-json":
            return b"not json"
        return json.dumps({**json.loads(reply), "id": 999}).encode()


@pytest.mark.parametrize("fault,message", [
    ("id", "response id 999 does not match request 0"),
    ("not-json", "is not JSON"),
    ("close", "connection closed mid-query"),
])
def test_protocol_fault_is_raised_once_not_retried(trained_net, fault, message):
    server = _FaultyServer(InProcessPredictor(trained_net, disclosure="hard"))
    server.fault = fault
    server.start_background()
    try:
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure="hard")
        with pytest.raises(TransportError, match=message) as info:
            remote.query(np.zeros((4, 2)))
        assert "unreachable" not in str(info.value)
        assert len(server.lines) == 1
        assert len(server.connections) == 1
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("disclosure,r", [("full-soft", None), ("top-r", 1), ("hard", None)])
def test_query_split_over_request_lines_matches_in_process(trained_net, monkeypatch, disclosure, r):
    monkeypatch.setattr(service, "MAX_LINE_BYTES", 256)
    local = InProcessPredictor(trained_net, disclosure=disclosure, r=r)
    server = _recording(local)
    try:
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure=disclosure, r=r)
        x = np.random.default_rng(7).normal(0.0, 2.0, (23, 2))
        assert remote.query(x) == local.query(x)
        assert len(server.connections) == 1  # every request went over the same connection
        assert len(server.lines) > 1
        assert all(len(line) + 1 <= 256 for line in server.lines)
        rows = [row for line in server.lines for row in json.loads(line)["features"]]
        assert rows == x.tolist()
        monkeypatch.setattr(service, "MAX_LINE_BYTES", 40)
        with pytest.raises(ContractError, match="row 0"):
            remote.query(x)
    finally:
        server.shutdown()
        server.server_close()


def test_overlong_line_gets_error_and_close(trained_net, monkeypatch):
    monkeypatch.setattr(service, "MAX_LINE_BYTES", 64)
    server = _serve(InProcessPredictor(trained_net, disclosure="hard"))
    try:
        with socket.create_connection(server.endpoint, timeout=5.0) as sock:
            request = json.dumps({"id": 0, "features": [[0.0, 0.0]] * 10}).encode() + b"\n"
            assert len(request) > 64
            sock.sendall(request)
            stream = sock.makefile("rb")
            reply = json.loads(stream.readline())
            assert reply["id"] is None and "64 bytes" in reply["error"]
            assert stream.readline() == b""  # closed
    finally:
        server.shutdown()
        server.server_close()


def test_idle_or_reset_connection_ends_quietly(trained_net, monkeypatch, capfd):
    monkeypatch.setattr(service._LineHandler, "timeout", 0.2)
    local = InProcessPredictor(trained_net, disclosure="hard")
    server = _recording(local)
    try:
        with socket.create_connection(server.endpoint, timeout=5.0) as sock:
            assert sock.makefile("rb").readline() == b""  # the server gave up on the idle client
        server.closed.get(timeout=5.0)
        with socket.create_connection(server.endpoint, timeout=5.0) as sock:
            sock.sendall(b'{"id": 0, "features": [[0.0')
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close with a reset
        server.closed.get(timeout=5.0)
        remote = RemotePredictor(*server.endpoint, num_classes=3, disclosure="hard")
        assert remote.query(np.zeros((2, 2))) == local.query(np.zeros((2, 2)))
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Exception" not in err, err
    finally:
        server.shutdown()
        server.server_close()


class _CannedServer(PredictionServer):
    reply = b""

    def answer(self, line):
        return self.reply


@pytest.fixture(scope="module")
def canned_server():
    server = _CannedServer(_BoomHandle())
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize("reply", [
    b'{"id": 0, "topk": [[[5, 0.6], [1, 0.3]]]}',  # class out of range
    b'{"id": 0, "topk": [[[-1, 0.6], [1, 0.3]]]}',
    b'{"id": 0, "topk": [[[1, 0.6], [1, 0.3]]]}',  # repeated class
    b'{"id": 0, "topk": []}',  # wrong row count
    b'{"id": 0, "topk": [[[0, 0.6], [1, 0.3]], [[0, 0.6], [1, 0.3]]]}',
    b'{"id": 0, "topk": [[[0, NaN], [1, 0.3]]]}',  # NaN probability
    b'{"id": 0, "topk": [[[0, 0.6], [1, NaN]]]}',
    b'{"id": 0, "topk": [[[0, 0.3], [1, 0.6]]]}',  # ascending
    b'{"id": 0, "topk": [[[0, 1.5], [1, 0.3]]]}',
    b'{"id": 0, "topk": [[[0, 0.6]]]}',  # fewer pairs than r
    b'{"id": 0, "topk": [[[0, 0.6, 1], [1, 0.3]]]}',
    b'{"id": 0, "topk": [[0, 1]]}',
    b'{"id": 0, "topk": "0,1"}',  # topk not a list
    b'{"id": 0, "topk": {"0": 0.6}}',
    b'{"id": 0}',
    b'[1, 2]',
    b'not json',
    b'[' * 100_000,  # nested too deep to parse
])
def test_malformed_response_raises_typed_error(canned_server, reply):
    canned_server.reply = reply
    remote = RemotePredictor(*canned_server.endpoint, num_classes=3, disclosure="top-r", r=2)
    with pytest.raises((ContractError, TransportError)):
        remote.query(np.zeros((1, 2)))


@pytest.mark.parametrize("reply, record", [
    (b'{"id": 0, "topk": [[[true, 0.6], [2, 0.3]], [[0, 0.6], [1, 0.3]]]}', 0),
    (b'{"id": 0, "topk": [[[0, 0.6], [1, 0.3]], [[0, true], [1, 0.3]]]}', 1),
    (b'{"id": 0, "topk": [[[0, 0.6], [1, 0.3]], [[2, 0.6], [false, 0.3]]]}', 1),
])
def test_boolean_in_a_response_names_the_record(canned_server, reply, record):
    # beside numbers, numpy would read true as 1 and false as 0
    canned_server.reply = reply
    remote = RemotePredictor(*canned_server.endpoint, num_classes=3, disclosure="top-r", r=2)
    with pytest.raises(ContractError, match=f"record {record}: classes and probabilities must be numbers"):
        remote.query(np.zeros((2, 2)))


def test_listen_backlog_holds_a_burst_of_clients(trained_net):
    # bound but not serving: every connect must complete in the kernel's
    # accept queue, which socketserver's default backlog of 5 overflows
    server = PredictionServer(InProcessPredictor(trained_net, disclosure="hard"))
    clients = []
    try:
        for _ in range(16):
            clients.append(socket.create_connection(server.endpoint, timeout=0.5))
    finally:
        for sock in clients:
            sock.close()
        server.server_close()
    assert len(clients) == 16


def test_a_connection_beyond_the_cap_gets_one_error_line(trained_net, monkeypatch):
    monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
    server = _serve(InProcessPredictor(trained_net, disclosure="hard"))
    request = json.dumps({"id": 0, "features": [[0.0, 0.0]]}).encode() + b"\n"

    def served(sock) -> bool:
        sock.sendall(request)
        return "topk" in json.loads(sock.makefile("rb").readline())

    held = [socket.create_connection(server.endpoint, timeout=5.0) for _ in range(2)]
    try:
        assert all(served(sock) for sock in held)  # both are served, and stay open
        with socket.create_connection(server.endpoint, timeout=5.0) as sock:
            stream = sock.makefile("rb")
            reply = json.loads(stream.readline())
            assert reply == {"id": None, "error": "server busy: 2 connections open, try again later"}
            assert stream.readline() == b""  # closed
        held.pop().close()  # frees a slot once the server sees the close
        deadline = time.monotonic() + 10.0
        while True:
            with socket.create_connection(server.endpoint, timeout=5.0) as sock:
                try:
                    ok = served(sock)
                except ConnectionError:  # refused while our request lay unread, so the close may reset
                    ok = False
            if ok or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert ok
    finally:
        for sock in held:
            sock.close()
        server.shutdown()
        server.server_close()


# fuzzing both ends of the wire -------------------------------------------

FEATURES = st.lists(st.lists(NUMBER | st.floats(), max_size=3), max_size=3)
REQUEST = st.fixed_dictionaries({"features": FEATURES | JSON}, optional={"id": JSON})
PAIRS = st.lists(st.lists(st.lists(NUMBER, max_size=3) | JSON, max_size=3), max_size=3)
RESPONSE = st.fixed_dictionaries({"id": st.integers(-1, 1) | JSON, "topk": PAIRS | JSON}, optional={"error": JSON})


@pytest.fixture(scope="module")
def unserved_server(trained_net):
    server = PredictionServer(InProcessPredictor(trained_net, disclosure="top-r", r=2))
    yield server
    server.server_close()


@given(st.binary(max_size=200) | REQUEST.map(lambda obj: json.dumps(obj).encode()))
@settings(max_examples=100, deadline=None)
def test_answer_fuzz(unserved_server, line):
    answer = unserved_server.answer(line)
    payload = json.loads(answer)
    assert answer == json.dumps(payload, sort_keys=True).encode()  # the text json.dumps gives, ids included
    assert type(payload) is dict and "id" in payload and ("error" in payload) != ("topk" in payload)
    if "error" in payload:
        assert type(payload["error"]) is str and payload["error"]
    else:
        assert all(len(pairs) == 2 and type(c) is int and type(p) is float for pairs in payload["topk"]
                   for c, p in pairs)


@given(st.binary(max_size=200) | RESPONSE.map(lambda obj: json.dumps(obj).encode()), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_response_columns_fuzz(line, rows):
    remote = RemotePredictor("127.0.0.1", 9, num_classes=4, disclosure="top-r", r=2)
    try:
        classes, probs = remote._response_columns(line, 0, rows)
    except (ContractError, TransportError):
        return
    assert classes.dtype == np.intp and probs.dtype == np.float64 and classes.shape == probs.shape == (rows, 2)
    assert_valid_records(_records(classes, probs, 2, 4), 2, 4)
