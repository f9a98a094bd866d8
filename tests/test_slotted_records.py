"""The serving request path builds slotted records, and one of each kind.

Every record a served request passes through, the ``TraceRequest`` it
arrives as included, is a ``slots=True`` dataclass — no per-instance
``__dict__`` — and none of them is frozen: the AEAD tag, not immutability,
guards sealed bytes, and a relay that rewrites a field builds a new record.
``Normalization`` stays frozen because ``quantization.IDENTITY`` is a
shared singleton.  A sealed array has one record (``Envelope``, its byte
count taken once), and a forward encoding one (the ``EncodeTicket``
backward reads back).
"""

import dataclasses

import numpy as np
import pytest

import repro.enclave.sealing
import repro.runtime.darknight
from repro.comm import LinkModel, SecureChannel
from repro.enclave import Ciphertext, Envelope, Sealer
from repro.gpu import ShareLaunch
from repro.masking import CoefficientSet, IntegrityReport, iter_virtual_batches
from repro.masking.forward import EncodedBatch
from repro.pipeline import PipelineExecutor, WindowItem
from repro.pipeline.executor import GroupResult, _Job
from repro.pipeline.stages import EncodeTicket
from repro.quantization import IDENTITY, Normalization
from repro.runtime import DarKnightBackend, DarKnightConfig
from repro.serving.requests import PendingRequest, RequestOutcome, ScheduledBatch
from repro.serving.trace import synthetic_trace


def _records():
    """One of every request-path record; the staged ones come from a real
    pipelined run and a real encode/dispatch/decode."""
    from repro.nn import Dense, ReLU, Sequential

    rng = np.random.default_rng(3)
    net = Sequential([Dense(6, 5, rng=rng), ReLU(), Dense(5, 3, rng=rng)], input_shape=(6,))
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, integrity=True, seed=1))
    result = PipelineExecutor(net, backend).run(rng.normal(size=(3, 6)))
    backend.end_batch()
    op = backend.stage_linear("dense", net.layers[0].params["w"], None, "probe")
    vb = next(iter_virtual_batches(rng.normal(size=(2, 6)), 2))
    tickets = backend.encode(op, [vb], [0])
    future = backend.dispatch(tickets)
    backend.decode(future)
    backend.end_batch()
    channel, _ = SecureChannel.establish_pair("a", "b", LinkModel(), rng)
    envelope = channel.send_array(np.ones(4))
    coeffs = CoefficientSet.generate(backend.enclave.rng, k=2, m=1)
    return {
        "Ciphertext": envelope.ciphertext,
        "Envelope": envelope,
        "sealed Envelope": Sealer(b"root", b"m", rng).seal(np.ones(2)),
        "StageSpan": result.stats.spans[0],
        "PipelineStats": result.stats,
        "GroupResult": GroupResult(np.ones(1), 0.0, 1.0),
        "WindowItem": WindowItem(np.ones((2, 6)), 0.0),
        "VirtualBatch": vb,
        "EncodedBatch": EncodedBatch(np.zeros((3, 1)), np.zeros((1, 1)), coeffs),
        "IntegrityReport": IntegrityReport(consistent=True),
        "ShareLaunch": ShareLaunch("dense", "k", weight_name="w"),
        "EncodeTicket": tickets[0],
        "GpuFuture": future,
        "_Job": _Job(0, (0,), 1, np.ones((1, 6)), {}),
        "PendingRequest": PendingRequest(0, "t", np.ones(6), 0.0),
        "RequestOutcome": RequestOutcome(0, "t", "ok", 0.0),
        "ScheduledBatch": ScheduledBatch(0),
        "TraceRequest": synthetic_trace(3, (6,), seed=1)[0],
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_request_path_record_is_slotted_and_not_frozen(name):
    record = RECORDS[name]
    assert not hasattr(record, "__dict__"), f"{name} carries a per-instance __dict__"
    assert not type(record).__dataclass_params__.frozen, f"{name} is frozen"


def test_only_normalization_stays_frozen():
    assert type(IDENTITY).__dataclass_params__.frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        IDENTITY.factor = 2.0
    assert Normalization(2.0).factor == 2.0


def test_one_sealed_array_record_and_one_forward_record():
    assert not hasattr(repro.enclave.sealing, "SealedBlob")
    assert not hasattr(repro.runtime.darknight, "_ForwardRecord")
    envelope = RECORDS["Envelope"]
    ct = envelope.ciphertext
    assert isinstance(envelope, Envelope) and isinstance(ct, Ciphertext)
    assert envelope.nbytes == ct.nbytes == len(ct.nonce) + len(ct.data) + len(ct.tag) + len(ct.aad)
    # A relay that rewrites the ciphertext builds a new record with its own count.
    longer = dataclasses.replace(envelope, ciphertext=dataclasses.replace(ct, aad=ct.aad + b"x"))
    assert longer.nbytes == envelope.nbytes + 1


def test_the_forward_store_keeps_the_encode_tickets():
    rng = np.random.default_rng(0)
    backend = DarKnightBackend(DarKnightConfig(virtual_batch_size=2, seed=4))
    op = backend.stage_linear("dense", rng.normal(size=(6, 3)), None, "layer")
    vbs = list(iter_virtual_batches(rng.normal(size=(4, 6)), 2))
    tickets = backend.encode(op, vbs, range(len(vbs)))
    assert all(isinstance(t, EncodeTicket) for t in tickets)
    assert backend._forward_store["layer"] == tickets
    assert all(kept is t for kept, t in zip(backend._forward_store["layer"], tickets))
    assert backend.open_encodings() == 2
    backend.end_batch()
    backend.assert_encodings_released()
