"""Command-line entry points for ``python -m repro``.

Three subcommands:

* ``report`` (the default) — print the paper's evaluation exhibits
  (:data:`repro.reporting.exhibits.PAPER_EXHIBITS`);
* ``serve`` — drive the multi-tenant private-inference server over a
  synthetic offline request trace (no network dependency) and print the
  serving metrics.  Its flags describe the *trace*; the deployment is a
  :class:`~repro.serving.ServingConfig`, read with ``--config
  FILE_OR_PRESET`` and edited with ``--set PATH=VALUE``;
* ``audit`` — query a recorded trail: ``prove`` a request's inclusion,
  ``verify`` a proof offline against a published chain head, ``replay``
  a disputed window deterministically, ``check-chain`` walk the logs.

Anything else prints the usage line and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError, ReproError


def parse_seed_flag(argv: list[str] | None = None, default: int = 0) -> int:
    """Extract a ``--seed N`` / ``--seed=N`` flag from an argv-style list.

    Shared by the examples so every script in ``examples/`` is
    deterministic and re-seedable, while tolerating foreign flags (the
    example smoke tests run them under pytest's argv).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for i, arg in enumerate(argv):
        value = None
        if arg == "--seed" and i + 1 < len(argv):
            value = argv[i + 1]
        elif arg.startswith("--seed="):
            value = arg.split("=", 1)[1]
        if value is not None:
            try:
                return int(value)
            except ValueError:
                return default
    return default


# ----------------------------------------------------------------------
# models the serve subcommand can load
# ----------------------------------------------------------------------
def build_serving_model(name: str, seed: int = 0):
    """Build a named model for serving; returns ``(network, input_shape)``.

    ``tiny`` is a dense head small enough for smoke tests and CI;
    ``mini-vgg`` exercises the full conv path; ``mini-resnet`` adds
    residual blocks — the deep plan layered partitioning wants.
    """
    from repro.models import build_mini_resnet, build_mini_vgg
    from repro.nn import Sequential
    from repro.nn.layers import Dense, ReLU

    rng = np.random.default_rng(seed)
    if name == "tiny":
        input_shape = (16,)
        network = Sequential(
            [Dense(16, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)], input_shape
        )
        return network, input_shape
    if name == "mini-vgg":
        input_shape = (3, 8, 8)
        network = build_mini_vgg(
            input_shape=input_shape, n_classes=10, rng=rng, width=8
        )
        return network, input_shape
    if name == "mini-resnet":
        input_shape = (3, 8, 8)
        network = build_mini_resnet(
            input_shape=input_shape, n_classes=10, rng=rng, width=8
        )
        return network, input_shape
    raise ConfigurationError(
        f"unknown serving model {name!r} (tiny | mini-vgg | mini-resnet)"
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def run_report() -> int:
    """Print the paper's evaluation, each exhibit beside the paper's values."""
    from repro.reporting.exhibits import PAPER_EXHIBITS

    print("\n\n".join(render(rows()) for rows, render in PAPER_EXHIBITS))
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve a synthetic multi-tenant inference trace privately. The"
                    " deployment is a repro.serving.ServingConfig (its docstring"
                    " explains every field): --config picks one, --set edits it.",
    )
    parser.add_argument("--model", default="tiny", help="tiny | mini-vgg | mini-resnet")
    parser.add_argument("--requests", type=int, default=64, help="trace length")
    parser.add_argument("--tenants", type=int, default=4, help="distinct tenants")
    parser.add_argument("--rate", type=float, default=1000.0, help="offered load, requests/s")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="seeds model, trace and enclaves (default: darknight.seed, else 0)",
    )
    parser.add_argument(
        "--config", default=None, metavar="FILE_OR_PRESET",
        help="start from a JSON file in ServingConfig.to_dict() layout or a"
             " preset (latency | throughput | audited) instead of the defaults",
    )
    parser.add_argument(
        "--set", action="append", default=[], metavar="PATH=VALUE",
        help="set one field by its dotted path in that layout (repeatable, in"
             " order); VALUE is JSON, else a bare string: darknight.integrity=true,"
             " partition=layered:2. Setting a field of an absent section creates"
             " it (audit={} takes its defaults); audit=null removes one",
    )
    parser.add_argument(
        "--slo-budget", action="append", default=[], metavar="CLASS=MS",
        help="define an SLO class by its end-to-end latency budget in ms"
             " (repeatable); tighter budgets get higher admission priority",
    )
    parser.add_argument(
        "--slo-class", action="append", default=[], metavar="TENANT=CLASS",
        help="put a tenant in a class defined with --slo-budget (repeatable);"
             " other tenants keep the budget-less default class",
    )
    return parser


def run_serve(argv: list[str]) -> int:
    """``python -m repro serve ...`` — offline trace driver."""
    args = _serve_parser().parse_args(argv)
    try:
        return _serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_kv_flags(pairs: list[str], flag: str) -> list[tuple[str, str]]:
    """Split repeated ``key=value`` flag occurrences, keeping their order."""
    out = []
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ConfigurationError(f"{flag} expects key=value, got {pair!r}")
        out.append((key, value))
    return out


def _serving_config(args):
    """The deployment: ``--config`` overlaid with ``--set`` and the SLO flags."""
    from repro.serving import PRESETS, ServingConfig, build_slo_policy

    data = {}
    if args.config in PRESETS:
        data = ServingConfig.preset(args.config).to_dict()
    elif args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"--config {args.config!r} is neither a preset"
                f" ({', '.join(PRESETS)}) nor a readable JSON file ({exc})"
            ) from exc
    if not isinstance(data, dict):
        return ServingConfig.from_dict(data)  # refuses it
    # The overlay edits the to_dict form and knows nothing of its layout:
    # from_dict accepts or refuses whatever comes out.
    for path, raw in _parse_kv_flags(args.set, "--set"):
        *sections, leaf = path.split(".")
        node = data
        for key in sections:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        try:
            node[leaf] = json.loads(raw)
        except ValueError:
            node[leaf] = raw
    if args.slo_budget or args.slo_class:
        # Which tenant is in which class is what no file can know; it joins
        # the dict, replacing any slo section the file or --set gave.
        budgets = _parse_kv_flags(args.slo_budget, "--slo-budget")
        try:
            budgets = {name: float(ms) / 1e3 for name, ms in budgets}
        except ValueError as exc:
            raise ConfigurationError(
                f"--slo-budget: a budget is a number of milliseconds ({exc})"
            ) from None
        tenants = dict(_parse_kv_flags(args.slo_class, "--slo-class"))
        data["slo"] = ServingConfig(slo=build_slo_policy(budgets, tenants)).to_dict()["slo"]
    return ServingConfig.from_dict(data)


def _serve(args) -> int:
    from repro.serving import PrivateInferenceServer, synthetic_trace

    if args.rate <= 0:
        raise ConfigurationError(f"--rate must be > 0, got {args.rate}")
    config = _serving_config(args)
    dk, audit = config.darknight, config.audit
    if args.seed is not None or dk.seed is None:
        # The CLI is deterministic unless told otherwise.
        dk = dataclasses.replace(dk, seed=args.seed or 0)
    if audit is not None and audit.model is None:
        # ``audit replay`` rebuilds the network the manifest names.
        audit = dataclasses.replace(audit, model=args.model)
    config = dataclasses.replace(config, darknight=dk, audit=audit)
    adaptive, slo, autoscale = config.adaptive, config.slo, config.autoscale
    network, input_shape = build_serving_model(args.model, seed=dk.seed)
    trace = synthetic_trace(
        n_requests=args.requests,
        input_shape=input_shape,
        n_tenants=args.tenants,
        mean_interarrival=1.0 / args.rate,
        seed=dk.seed,
    )
    server = PrivateInferenceServer(network, config)
    report = server.serve_trace(trace)
    # K as provisioned: the server fits the requested K to the EPC budget.
    k, requested = server.darknight.virtual_batch_size, dk.virtual_batch_size
    if not config.coalesce:
        mode = "per-request"
    elif adaptive:
        mode = f"adaptive K={k} (requested {requested})"
    else:
        mode = f"coalesced K={k}" + (f" (requested {requested})" if k < requested else "")
    if autoscale is not None:
        shard_desc = (
            f"elastic {autoscale.min_shards}-{autoscale.max_shards} shard(s),"
            f" started at {server.darknight.num_shards}"
        )
    else:
        shard_desc = f"{dk.num_shards} shard(s)"
    print(
        f"served {args.requests} requests from {args.tenants} tenants"
        f" ({mode}, integrity={'on' if dk.integrity else 'off'},"
        f" pipeline depth {dk.pipeline_depth},"
        f" {shard_desc})"
    )
    if not slo.is_default:
        classes = ", ".join(
            f"{row['name']}"
            + (
                f"={row['latency_budget'] * 1e3:.1f}ms"
                if row["latency_budget"] is not None
                else " (no budget)"
            )
            + (f" <- {', '.join(row['tenants'])}" if row["tenants"] else "")
            for row in slo.class_table()
        )
        print(f"SLO classes: {classes}")
    print(report.render())
    return 0


# ----------------------------------------------------------------------
# the audit subcommand
# ----------------------------------------------------------------------
def _audit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Query a serving run's verifiable audit trail.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    prove = sub.add_parser(
        "prove", help="extract a request's offline-verifiable inclusion proof"
    )
    prove.add_argument("--log-dir", required=True, help="audit directory")
    prove.add_argument("--request-id", type=int, required=True)
    prove.add_argument(
        "--out", default=None, help="write the proof JSON here (default: stdout)"
    )
    verify = sub.add_parser(
        "verify", help="verify a proof file against a shard chain head"
    )
    verify.add_argument("--proof", required=True, help="proof JSON from 'prove'")
    verify.add_argument(
        "--root", default=None,
        help="the shard chain head to verify against (hex); defaults to the"
             " head embedded in the proof file — pass the independently"
             " published head to actually distrust the file",
    )
    replay = sub.add_parser(
        "replay", help="deterministically re-execute a committed window"
    )
    replay.add_argument("--log-dir", required=True, help="audit directory")
    replay.add_argument("--shard", type=int, default=None)
    replay.add_argument("--window", type=int, default=None)
    replay.add_argument(
        "--request-id", type=int, default=None,
        help="replay the window holding this request's terminal leaf"
             " (alternative to --shard/--window)",
    )
    chain = sub.add_parser(
        "check-chain", help="walk every shard log's hash chain end to end"
    )
    chain.add_argument("--log-dir", required=True, help="audit directory")
    chain.add_argument(
        "--recover", action="store_true",
        help="tolerate a damaged log: keep each chain's longest valid"
             " prefix and report how many lines were dropped",
    )
    return parser


def _audit_logs(log_dir: str, recover: bool = False):
    """Load every per-shard log in an audit directory."""
    from repro.audit import AuditLog

    paths = sorted(Path(log_dir).glob("shard*.audit.jsonl"))
    if not paths:
        raise ConfigurationError(f"no shard*.audit.jsonl logs under {log_dir}")
    logs = {}
    for path in paths:
        if recover:
            log, dropped = AuditLog.recover(path)
        else:
            log, dropped = AuditLog.load(path), 0
        logs[log.shard_id] = (log, dropped)
    return logs


def _audit_find(logs, request_id: int, n_stages: int = 1):
    """The (log, proof) pair holding a request's best (terminal) leaf.

    With ``n_stages > 1`` (a ``layered:N`` trail) only the units' exit
    members are searched: theirs are the leaves that commit logits.
    """
    from repro.audit import STATUS_RETRIED, prove
    from repro.errors import AuditError

    best = None
    for log, _ in logs.values():
        if log.shard_id % n_stages != n_stages - 1:
            continue
        try:
            proof = prove(log, request_id)
        except AuditError:
            continue
        terminal = proof.leaf["status"] != STATUS_RETRIED
        if best is None or (terminal and not best[2]):
            best = (log, proof, terminal)
        if terminal:
            break
    if best is None:
        raise AuditError(f"request {request_id} appears in no shard's audit log")
    return best[0], best[1]


def run_audit(argv: list[str]) -> int:
    """``python -m repro audit <prove|verify|replay|check-chain> ...``."""
    from repro.audit import (
        InclusionProof,
        load_manifest,
        manifest_config,
        replay_window,
        verify_proof,
    )
    from repro.sharding import PartitionSpec

    args = _audit_parser().parse_args(argv)
    try:
        if args.cmd == "prove":
            logs = _audit_logs(args.log_dir)
            log, proof = _audit_find(logs, args.request_id)
            record = {"proof": proof.to_record(), "shard_root": log.chain_root}
            text = json.dumps(record, sort_keys=True, indent=2)
            if args.out is not None:
                Path(args.out).write_text(text + "\n")
                print(
                    f"request {args.request_id}: proof from shard"
                    f" {log.shard_id} window {proof.window_id}"
                    f" ({len(proof.merkle.path)} siblings) -> {args.out}"
                )
            else:
                print(text)
            return 0
        if args.cmd == "verify":
            record = json.loads(Path(args.proof).read_text())
            proof = InclusionProof.from_record(record["proof"])
            root = args.root if args.root is not None else record["shard_root"]
            ok = verify_proof(proof, root)
            print(
                f"request {proof.leaf['request_id']} (shard {proof.shard_id},"
                f" window {proof.window_id}, status"
                f" {proof.leaf['status']!r}): "
                + ("PROOF OK" if ok else "PROOF FAILED")
            )
            return 0 if ok else 1
        if args.cmd == "replay":
            manifest = load_manifest(args.log_dir)
            partition = manifest.get("partition", "replicated")
            n_stages = PartitionSpec.parse(partition).n_stages
            logs = _audit_logs(args.log_dir)
            if args.request_id is not None:
                log, proof = _audit_find(logs, args.request_id, n_stages)
                entry = log.entries[proof.window_id]
            elif args.shard is not None and args.window is not None:
                if args.shard not in logs:
                    raise ConfigurationError(
                        f"no shard {args.shard} log under {args.log_dir}"
                    )
                exit_shard = args.shard - args.shard % n_stages + n_stages - 1
                if args.shard != exit_shard:
                    raise ConfigurationError(
                        f"shard {args.shard} is an interior member of a"
                        f" {partition} unit: its leaves commit activations,"
                        f" not logits; replay the unit's exit shard {exit_shard}"
                    )
                log = logs[args.shard][0]
                if not 0 <= args.window < log.n_windows:
                    raise ConfigurationError(
                        f"shard {args.shard} has {log.n_windows} windows;"
                        f" --window {args.window} is out of range"
                    )
                entry = log.entries[args.window]
            else:
                raise ConfigurationError(
                    "replay needs --request-id, or both --shard and --window"
                )
            network, _ = build_serving_model(
                manifest["model"], seed=manifest["seed"] or 0
            )
            result = replay_window(entry, network, manifest_config(manifest))
            print(
                f"window {result.window_id} (shard {result.shard_id}):"
                f" replayed {result.n_requests} request(s) in"
                f" {result.n_batches} batch(es); output digests MATCH"
            )
            return 0
        # check-chain
        logs = _audit_logs(args.log_dir, recover=args.recover)
        total = 0
        events = []
        for shard_id in sorted(logs):
            log, dropped = logs[shard_id]
            checked = log.verify_chain()
            total += checked
            line = (
                f"shard {shard_id}: {checked} window(s) verified,"
                f" head {log.chain_root[:16]}…"
            )
            if dropped:
                line += f" ({dropped} damaged line(s) dropped)"
            print(line)
            events.extend(log.membership_events())
        if events:
            events.sort(key=lambda e: (e["time"], e["shard_id"], e["window_id"]))
            print(f"membership history ({len(events)} chained event(s)):")
            for ev in events:
                print(
                    f"  t={ev['time']:.6f} shard {ev['shard_id']}"
                    f" {ev['kind']} (window {ev['window_id']})"
                )
        print(f"chain OK: {total} window(s) across {len(logs)} shard(s)")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_USAGE = "usage: python -m repro [report | serve ... | audit ...]  (serve/audit --help)"


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro [report|serve|audit] ...``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:])
    if argv and argv[0] == "audit":
        return run_audit(argv[1:])
    if argv in ([], ["report"]):
        return run_report()
    print(_USAGE, file=sys.stderr)
    return 2
