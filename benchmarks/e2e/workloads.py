"""The four workloads: how each is built, run for one pass, checked and probed.

Runs inside the child process ``run.py`` spawns per workload.  The load
generator is this one process, one thread.  Serving workloads are
*open-loop on the simulated clock* — the generated trace is the send
schedule, latency is timed from each request's scheduled arrival, so
generator lateness is 0 by construction — and an as-fast-as-possible
offline replay on the host clock (a closed loop of one client).  Training
is a closed loop of one client.  The program only ever receives the
generated trace/data; ``seed`` fixes both them and the model weights.

Every pass builds a fresh server/trainer, so every simulated statistic,
the logits digest and the loss trajectory repeat exactly pass to pass —
and are checked to.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import catalog
import checks
import layers
from tracing import Recorder, Summary

from repro.audit import AuditConfig, replay_window
from repro.cli import build_serving_model
from repro.data import cifar_like
from repro.errors import AuditError, DecodingError, IntegrityError
from repro.gpu import RandomTamper, TargetedTamper
from repro.models import build_mini_vgg
from repro.nn import PlainBackend
from repro.precompute import active_scratch
from repro.runtime import DarKnightBackend, DarKnightConfig, Trainer
from repro.serving import PrivateInferenceServer, ServingConfig, synthetic_trace

K = 4
N_TENANTS = 4
#: Reference-loop samples taken before the first pass and after every pass.
REFS_PER_PASS = 5
#: Set-up timings per pass: the pass's own plus set-up-only repeats.
SETUPS_PER_PASS = 3
#: Rate-sweep multipliers of a serving workload's base rate.
SWEEP_RATES = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class Serving:
    """A serving workload: model, deployment shape, trace, latency limit."""

    name: str
    model: str
    integrity: bool
    n_requests: int
    #: Requests the trace generator is asked for; the workload sends the
    #: first ``n_requests``.  Both resnet workloads draw from one pool so
    #: they see the same request tensors.
    trace_pool: int
    rate: float
    limit_s: float
    num_shards: int = 1
    pipeline_depth: int = 1
    partition: str = "replicated"
    precompute: bool = False
    audit: bool = False
    canary_requests: int = 80

    kind = "serving"
    item = "request"

    @property
    def items(self) -> int:
        return self.n_requests


@dataclass(frozen=True)
class Training:
    """The training workload: steps of ``batch`` samples per pass."""

    name: str
    steps: int
    batch: int = 16
    canary_steps: int = 4

    kind = "training"
    item = "sample"

    @property
    def items(self) -> int:
        return self.steps * self.batch


def specs(smoke: bool) -> dict:
    """Workload name -> spec; ``smoke`` shrinks every size, nothing else."""
    if smoke:
        sizes = dict(tiny=240, resnet=32, composed=24, steps=2, canary=16, canary_steps=1)
    else:
        sizes = dict(tiny=8000, resnet=600, composed=450, steps=24, canary=80, canary_steps=4)
    resnet = dict(
        model="mini-resnet", integrity=True, trace_pool=sizes["resnet"], limit_s=0.050,
        canary_requests=sizes["canary"],
    )
    all_specs = (
        Serving(
            "serve-tiny-plain", "tiny", False, sizes["tiny"], sizes["tiny"],
            rate=3000.0, limit_s=0.010, canary_requests=0,
        ),
        Serving("serve-resnet-integrity", n_requests=sizes["resnet"], rate=500.0, **resnet),
        Serving(
            "serve-resnet-composed", n_requests=sizes["composed"], rate=800.0,
            num_shards=4, pipeline_depth=2, partition="layered:2", precompute=True,
            audit=True, **resnet,
        ),
        Training("train-vgg-integrity", sizes["steps"], canary_steps=sizes["canary_steps"]),
    )
    if tuple(s.name for s in all_specs) != catalog.WORKLOAD_NAMES:
        raise RuntimeError("workload specs are out of step with catalog.WORKLOADS")
    return {s.name: s for s in all_specs}


class ReferenceLoop:
    """Fixed benchmark-owned work timed around every pass (~0.3 s).

    A third each of interpreter work, a 48x48 int64 matmul mod p and a
    float64 GEMM — the three things the workloads spend host time on —
    so its duration tracks how fast this machine is *right now*.
    """

    def __init__(self, scale: float = 1.0) -> None:
        rng = np.random.default_rng(0)
        self.p = 2**25 - 39
        self.a = rng.integers(0, self.p, size=(48, 48), dtype=np.int64) % 8192
        self.b = rng.integers(0, self.p, size=(48, 48), dtype=np.int64) % 8192
        self.c = rng.normal(size=(160, 160))
        self.d = rng.normal(size=(160, 160))
        #: Iterations of each third; ``scale`` < 1 only shortens smoke runs.
        self.counts = tuple(int(n * scale) for n in (750_000, 1_150, 520))

    def __call__(self) -> float:
        n_interp, n_int, n_float = self.counts
        start = time.perf_counter()
        acc = 0
        for i in range(n_interp):
            acc = (acc * 31 + i) % 1000003
        for _ in range(n_int):
            (self.a @ self.b) % self.p
        for _ in range(n_float):
            self.c @ self.d
        return time.perf_counter() - start


@dataclass
class PassResult:
    """What one pass produced, already checked."""

    setup_s: float
    wall_s: float
    attempted: int
    failed: int
    messages: list
    #: Everything that must repeat exactly pass to pass.
    identity: dict
    #: Program counters and simulated numbers for the per-layer metrics.
    facts: dict
    step_ms: list

    @property
    def items_ok(self) -> int:
        return self.attempted - self.failed


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class ServingDriver:
    """Builds, serves and checks one serving workload."""

    root = layers.SERVING_ROOT

    def __init__(self, spec: Serving, seed: int, shared_prefix: int) -> None:
        self.spec = spec
        self.seed = seed
        self.shared_prefix = min(shared_prefix, spec.n_requests)
        _server, network, pool, _ = self._build(spec.trace_pool, spec.rate)
        #: Float forward of every request tensor, the logits' reference.
        self.reference = network.forward(
            np.stack([event.x for event in pool]), PlainBackend(), training=False
        )

    def _build(self, n: int, rate: float):
        """Model + deployment + trace; everything before the first request."""
        spec = self.spec
        start = time.perf_counter()
        network, shape = build_serving_model(spec.model, seed=self.seed)
        config = ServingConfig(
            darknight=DarKnightConfig(
                virtual_batch_size=K,
                integrity=spec.integrity,
                num_shards=spec.num_shards,
                pipeline_depth=spec.pipeline_depth,
                seed=self.seed,
            ),
            partition=spec.partition,
            precompute=spec.precompute,
            audit=AuditConfig() if spec.audit else None,
        )
        server = PrivateInferenceServer(network, config)
        trace = synthetic_trace(
            spec.trace_pool, shape, n_tenants=N_TENANTS,
            mean_interarrival=1.0 / rate, seed=self.seed,
        )[:n]
        return server, network, trace, time.perf_counter() - start

    def setup_only(self) -> float:
        return self._build(self.spec.n_requests, self.spec.rate)[3]

    def run_pass(self, fraction: float = 1.0) -> PassResult:
        """Serve the (possibly shortened) trace once and check everything."""
        spec = self.spec
        n = max(K, int(spec.n_requests * fraction))
        server, network, trace, setup_s = self._build(n, spec.rate)
        gc.collect()
        start = time.perf_counter()
        report = server.serve_trace(trace)
        wall_s = time.perf_counter() - start
        failed, messages, logits = checks.check_serving(report.outcomes, n, self.reference)
        messages += self._check_deployment(server, network)
        facts = _serving_facts(server, report, n, spec.limit_s)
        identity = dict(facts)
        # The scratch pool is process-global and warms up across passes.
        identity.pop("precompute.scratch.pooled_bytes")
        if logits is not None:
            identity["logits_digest"] = checks.logits_digest(logits)
            identity["shared_digest"] = checks.logits_digest(logits[: self.shared_prefix])
        return PassResult(setup_s, wall_s, n, len(failed), messages, identity, facts, [])

    def _check_deployment(self, server, network) -> list[str]:
        """No leaked encodings; audit chains verify and one window replays."""
        messages = []
        for shard in server.shards:
            try:
                shard.backend.assert_encodings_released()
            except DecodingError as exc:
                messages.append(f"shard {shard.shard_id}: {exc}")
        if server.audit is None:
            return messages
        try:
            verified = server.audit.verify()
        except AuditError as exc:
            return messages + [f"audit chains do not verify: {exc}"]
        if verified != server.audit.windows_committed:
            messages.append(
                f"audit verified {verified} of {server.audit.windows_committed} committed windows"
            )
        # Replay from the exit member's chain: its leaves commit the response
        # logits (interior members commit activations).
        exit_log = server.audit.logs[server.shards[-1].shard_id]
        entry = next(
            (e for e in exit_log.entries
             if e["leaves"] and all(leaf["output_digest"] for leaf in e["leaves"])),
            None,
        )
        if entry is None:
            messages.append("audit log holds no completed window to replay")
        elif not replay_window(entry, network, server.darknight, strict=False).matched:
            messages.append("audit replay of a committed window did not match")
        return messages

    # -- probes ----------------------------------------------------------
    def canary(self) -> dict | None:
        """Serve a short trace through a byzantine GPU on unit 0.

        Every request routed to the tampered unit must end without an OK
        response; the others must complete correctly.
        """
        spec = self.spec
        if not spec.integrity:
            return None
        n = spec.canary_requests
        server, _network, trace, _ = self._build(n, spec.rate)
        tamper = RandomTamper(server.shards[0].backend.field, seed=self.seed)
        server.shards[0].cluster[1].faults = tamper
        report = server.serve_trace(trace)
        pins = server.router.pins()
        tampered = {i for i, event in enumerate(trace) if pins[event.tenant] == 0}
        failed, messages, _ = checks.check_serving(
            report.outcomes, n, self.reference, expect_ok=set(range(n)) - tampered
        )
        leaked = sorted(o.request_id for o in report.outcomes if o.ok and o.request_id in tampered)
        if leaked:
            messages.append(f"tampered requests completed OK: {leaked[:8]}")
        if not tampered or not tamper.tamper_count:
            messages.append("canary tampered nothing")
        return {
            "attempted": len(tampered),
            "detected": len(tampered) - len(leaked),
            "tamper_detected_share": (len(tampered) - len(leaked)) / max(1, len(tampered)),
            "tampered_outputs": tamper.tamper_count,
            "failed": len(failed) + len(leaked),
            "messages": messages,
        }

    def sweep(self) -> tuple[list[dict], float, list[str]]:
        """Half-length traces at 0.5/1.0/1.5x the base rate (simulated clock).

        A rate is OK when at least 95 % of the requests sent finish within
        the latency limit (so p95 meets it; a failed request misses) and
        the backlog is not growing: the last arrival decile's median
        latency is at most twice the first decile's.
        """
        spec = self.spec
        n = max(K, spec.n_requests // 2)
        rows, best, messages = [], 0.0, []
        for mult in SWEEP_RATES:
            rate = spec.rate * mult
            server, _network, trace, _ = self._build(n, rate)
            report = server.serve_trace(trace)
            profile = _latency_profile(report, n, spec.limit_s)
            ratio = profile["backlog_ratio"]
            ok = profile["miss_share"] <= 0.05 and ratio is not None and ratio <= 2.0
            rows.append(
                {
                    "rate_req_per_s": rate,
                    "sent": n,
                    "completed": n - profile["not_ok"],
                    "failed": profile["not_ok"],
                    "p50_ms": profile["p50_ms"],
                    "p95_ms": profile["p95_ms"],
                    "within_limit_share": 1.0 - profile["miss_share"],
                    "backlog_ratio": ratio,
                    "ok": ok,
                }
            )
            if ok:
                best = max(best, rate)
            # Overload may shed; a completed response may not be wrong at any rate.
            completed = {o.request_id for o in report.outcomes if o.ok}
            _failed, found, _ = checks.check_serving(
                report.outcomes, n, self.reference, expect_ok=completed
            )
            messages += found
        return rows, best, messages


def _latency_profile(report, n_sent: int, limit_s: float) -> dict:
    """Simulated-clock latency of every request sent; a failure misses."""
    by_id = sorted(report.outcomes, key=lambda o: o.request_id)
    latency = np.array([o.latency if o.ok else np.inf for o in by_id], dtype=np.float64)
    done = latency[np.isfinite(latency)]
    decile = max(1, len(latency) // 10)
    first = latency[:decile][np.isfinite(latency[:decile])]
    last = latency[-decile:][np.isfinite(latency[-decile:])]
    return {
        "p50_ms": float(np.percentile(done, 50)) * 1e3 if len(done) else 0.0,
        "p95_ms": float(np.percentile(done, 95)) * 1e3 if len(done) else 0.0,
        "miss_share": (n_sent - int(np.sum(latency <= limit_s))) / n_sent,
        "not_ok": n_sent - len(done),
        #: Last arrival decile's median latency over the first's (None when
        #: either decile completed nothing).
        "backlog_ratio": (
            float(np.median(last) / np.median(first)) if len(first) and len(last) else None
        ),
    }


def _serving_facts(server, report, n_sent: int, limit_s: float) -> dict:
    """Simulated statistics and program counters of one served trace."""
    metrics = report.metrics
    profile = _latency_profile(report, n_sent, limit_s)
    waits = [
        o.dispatch_time - o.arrival_time
        for o in report.outcomes
        if o.dispatch_time is not None
    ]
    # First completed arrival to last completion, as ServerMetrics spans it.
    span = metrics.completed / metrics.throughput if metrics.throughput > 0 else 0.0
    shards = server.shards
    triggers = metrics.flush_triggers()
    pre = report.precompute or {}
    staged, reused = pre.get("weights_staged", 0), pre.get("weights_reused", 0)
    scratch = active_scratch()
    facts = {
        "sim_req_per_s": metrics.throughput,
        "sim_latency_p50_ms": profile["p50_ms"],
        "sim_latency_p95_ms": profile["p95_ms"],
        "sim_slo_miss_share": profile["miss_share"],
        "serving.batches": metrics.batches,
        "serving.batch_fill_ratio": metrics.batch_fill_ratio,
        "serving.deadline_flush_share": triggers.get("deadline", 0) / max(1, metrics.batches),
        "serving.sim_queue_wait_ms_p50": float(np.median(waits)) * 1e3 if waits else 0.0,
        "serving.shed_share": metrics.shed / n_sent,
        "pipeline.sim_enclave_util": (
            sum(s.busy_time for s in shards) / (len(shards) * span) if span > 0 else 0.0
        ),
        "pipeline.sim_gpu_util": (
            sum(s.cluster.max_busy_time() for s in shards) / (len(shards) * span)
            if span > 0 else 0.0
        ),
        "gpu.mac_ops": sum(s.cluster.total_mac_ops() for s in shards),
        "gpu.bytes_moved": sum(s.cluster.total_bytes_moved() for s in shards),
        "enclave.handshakes": report.handshakes,
        "comm.link_bytes": report.link_bytes,
        "audit.commit_window.bytes": metrics.audit_bytes,
        "precompute.pool.hit_rate": pre.get("hit_rate") or 0.0,
        "precompute.weight_cache.hit_rate": reused / (staged + reused) if staged + reused else 0.0,
        "precompute.scratch.pooled_bytes": 0 if scratch is None else scratch.pooled_bytes,
    }
    totals = server.pool.stage_totals()
    unknown = set(totals) - set(catalog.SIM_STAGES)
    if unknown:
        raise KeyError(f"stage_totals() has stages the catalog lacks: {sorted(unknown)}")
    for stage in catalog.SIM_STAGES:
        facts[f"pipeline.sim_stage_s.{stage}"] = totals.get(stage, 0.0)
    return facts


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
class TrainingDriver:
    """Builds, trains and checks the private-training workload."""

    root = layers.TRAINING_ROOT

    def __init__(self, spec: Training, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        trainer, x, y, _ = self._build(PlainBackend())
        #: Per-step losses of an identically initialised PlainBackend twin.
        self.twin = [
            float(trainer.train_step(xb, yb)) for xb, yb in self._batches(x, y, spec.steps)
        ]

    def _build(self, backend=None):
        """Data + model + masked backend + trainer; all before the first step."""
        spec = self.spec
        start = time.perf_counter()
        data = cifar_like(n_train=spec.items, n_test=spec.batch, seed=self.seed, size=8)
        network = build_mini_vgg(
            input_shape=(3, 8, 8), n_classes=10, rng=np.random.default_rng(self.seed), width=8
        )
        if backend is None:
            backend = DarKnightBackend(
                DarKnightConfig(virtual_batch_size=K, integrity=True, seed=self.seed)
            )
        trainer = Trainer(network, backend)
        return trainer, data.x_train, data.y_train, time.perf_counter() - start

    def _batches(self, x, y, steps: int):
        b = self.spec.batch
        return [(x[s * b : (s + 1) * b], y[s * b : (s + 1) * b]) for s in range(steps)]

    def setup_only(self) -> float:
        return self._build()[3]

    def run_pass(self, fraction: float = 1.0) -> PassResult:
        """Train ``steps`` SGD steps once and check the loss trajectory."""
        spec = self.spec
        steps = max(1, int(spec.steps * fraction))
        trainer, x, y, setup_s = self._build()
        gc.collect()
        losses, step_ms = [], []
        start = time.perf_counter()
        for xb, yb in self._batches(x, y, steps):
            t0 = time.perf_counter()
            losses.append(float(trainer.train_step(xb, yb)))
            step_ms.append((time.perf_counter() - t0) * 1e3)
        wall_s = time.perf_counter() - start
        failed, messages = checks.check_training(losses, self.twin[:steps])
        backend = trainer.backend
        try:
            backend.assert_encodings_released()
        except DecodingError as exc:
            messages.append(str(exc))
        facts = {
            "gpu.mac_ops": backend.cluster.total_mac_ops(),
            "gpu.bytes_moved": backend.cluster.total_bytes_moved(),
            "comm.link_bytes": backend.link.total_bytes,
        }
        identity = dict(facts, loss_trajectory=checks.loss_trajectory(losses))
        return PassResult(
            setup_s, wall_s, steps * spec.batch, len(failed) * spec.batch, messages,
            identity, facts, step_ms,
        )

    def canary(self) -> dict:
        """Train a few steps with GPU 1 corrupting a backward equation.

        Every step must raise :class:`IntegrityError`; a step that
        completes took a tampered gradient.
        """
        spec = self.spec
        trainer, x, y, _ = self._build()
        backend = trainer.backend
        tamper = RandomTamper(backend.field, seed=self.seed)
        backend.cluster[1].faults = TargetedTamper(tamper, "backward_equation_conv")
        detected, messages = 0, []
        for step, (xb, yb) in enumerate(self._batches(x, y, spec.canary_steps)):
            try:
                trainer.train_step(xb, yb)
                messages.append(f"tampered step {step} completed without an integrity error")
            except IntegrityError:
                detected += 1
                trainer.optimizer.zero_grad()
                backend.end_batch()
        if not tamper.tamper_count:
            messages.append("canary tampered nothing")
        return {
            "attempted": spec.canary_steps,
            "detected": detected,
            "tamper_detected_share": detected / spec.canary_steps,
            "tampered_outputs": tamper.tamper_count,
            "failed": spec.canary_steps - detected,
            "messages": messages,
        }


# ----------------------------------------------------------------------
# one workload, start to finish
# ----------------------------------------------------------------------
def run_workload(
    name: str,
    seed: int,
    *,
    smoke: bool,
    passes: int | None,
    seconds: float | None,
    trace: bool,
    trace_path=None,
) -> dict:
    """Everything one child process does for one workload.

    Timed passes stop after ``passes`` passes or once ``seconds`` of
    measuring (passes plus their bracketing reference loops) have gone
    by, whichever is given; never fewer than two.  The tamper canary
    always runs; ``trace`` adds the traced pass and the rate sweep (whose
    simulated metric is reported with the traced pass's).
    """
    child_start = time.perf_counter()
    all_specs = specs(smoke)
    spec = all_specs[name]
    if spec.kind == "serving":
        driver = ServingDriver(spec, seed, all_specs["serve-resnet-composed"].n_requests)
    else:
        driver = TrainingDriver(spec, seed)
    reference = ReferenceLoop(scale=0.25 if smoke else 1.0)
    messages: list[str] = []

    warmup = driver.run_pass(fraction=0.25)
    messages += [f"warm-up: {m}" for m in warmup.messages]
    reference()

    rows, results, setup_wall, setup_norm = [], [], [], []
    measure_start = time.perf_counter()
    refs_per_pass = 1 if smoke else REFS_PER_PASS
    ref_samples = [reference() for _ in range(refs_per_pass)]
    while True:
        result = driver.run_pass()
        setups = [result.setup_s] + [driver.setup_only() for _ in range(SETUPS_PER_PASS - 1)]
        ref_samples += [reference() for _ in range(refs_per_pass)]
        # Machine speed around this pass: the samples just before and just
        # after it; > 1 means slower than the nominal machine.
        ref_s = statistics.median(ref_samples[-2 * refs_per_pass :])
        speed = ref_s / catalog.REF_NOMINAL_S
        wall_rate = result.items_ok / result.wall_s
        rows.append(
            {
                "wall_s": result.wall_s,
                "ref_s": ref_s,
                "items_ok": result.items_ok,
                "wall_items_per_s": wall_rate,
                "norm_items_per_s": wall_rate * speed,
            }
        )
        setup_wall += setups
        setup_norm += [wall / speed for wall in setups]
        results.append(result)
        messages += [f"pass {len(rows)}: {m}" for m in result.messages]
        if passes is not None:
            done = len(rows) >= passes
        else:
            done = len(rows) >= 2 and time.perf_counter() - measure_start >= seconds
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, result in enumerate(results[1:], start=2):
        diff = checks.first_difference(results[0].identity, result.identity)
        if diff is not None:
            messages.append(f"pass {i} differs from pass 1 on {diff}")

    out = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "item": spec.item,
        "items_per_pass": spec.items,
        "passes": rows,
        "ref_s_samples": ref_samples,
        "setup_wall_s_samples": setup_wall,
        "setup_s_samples": setup_norm,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "identity": results[0].identity,
        "sim": {
            m.name: results[0].facts[m.name] for m in catalog.SIM_END_TO_END
            if m.name in results[0].facts
        },
        "step_ms": [ms for r in results for ms in r.step_ms],
        "canary": None,
        "rate_sweep": None,
        "per_layer": None,
    }

    if trace:
        out["per_layer"] = _traced_pass(driver, rows, out, messages, trace_path)
    probe = driver.canary()
    if probe is not None:
        messages += [f"canary: {m}" for m in probe.pop("messages")]
        out["attempted"] += probe["attempted"]
        out["failed"] += probe["failed"]
        out["canary"] = probe
    if trace and spec.kind == "serving":
        out["rate_sweep"], best, sweep_messages = driver.sweep()
        messages += [f"sweep: {m}" for m in sweep_messages]
        out["sim"]["sim_max_rate_ok_req_per_s"] = best
        out["per_layer"]["sim_max_rate_ok_req_per_s"] = best
    out["messages"] = messages
    out["correct"] = not messages and out["failed"] == 0
    out["child_wall_s"] = time.perf_counter() - child_start
    return out


def _traced_pass(driver, rows, out, messages, trace_path) -> dict:
    """One extra pass with every layer boundary wrapped; per-layer metrics."""
    recorder = Recorder()
    recorder.install(layers.targets())
    try:
        traced = driver.run_pass()
    finally:
        recorder.uninstall()
    messages += [f"traced pass: {m}" for m in traced.messages]
    diff = checks.first_difference(out["identity"], traced.identity)
    if diff is not None:
        messages.append(f"traced pass differs from untraced on {diff}")
    untraced_wall = float(np.median([row["wall_s"] for row in rows]))
    facts = dict(traced.facts)
    facts["bench.trace_overhead_share"] = (traced.wall_s - untraced_wall) / untraced_wall
    facts["bench.ref_s"] = statistics.median(out["ref_s_samples"])
    if out["step_ms"]:
        facts["runtime.train_step.ms_p50"] = float(np.percentile(out["step_ms"], 50))
        facts["runtime.train_step.ms_p95"] = float(np.percentile(out["step_ms"], 95))
    summary = Summary(recorder)
    per_layer = layers.per_layer_metrics(summary, driver.root, facts)
    if per_layer["bench.layer_partition_error"] > 0.01:
        messages.append("layer self times do not partition the root span within 1 %")
    if trace_path is not None:
        recorder.dump(
            trace_path,
            {"workload": out["workload"], "seed": out["seed"], "root": driver.root,
             "clock": "host time.perf_counter seconds"},
        )
    return per_layer
