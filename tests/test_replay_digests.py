"""Frozen replay digests of held-out evaluation and the event backend.

Each evaluation case generates a fleet-backend trace, splits its
recovery processes 40/60 in time order, fits ``RecoveryPolicyLearner``
with the default ``PipelineConfig`` on the first part and evaluates the
user-defined, trained and hybrid policies on the noise-filtered held-out
part, as ``repro evaluate`` does.  It compares, bit for bit:

* per policy and error type: ``total``, ``handled``,
  ``estimated_cost.hex()`` and ``real_cost_handled.hex()``;
* per policy: the SHA-256 of every evaluation ``EpisodeTrace``, in
  telemetry order (initial cost and outcome flags, and per step the
  action, source, forced flag, ``cost.hex()``, success, ``matched_log``
  and ``expected_cost``).

The cluster case runs the event backend on ``small_config`` under the
user-defined, a seeded random and the trained hybrid policy, and pins
the SHA-256 of the written JSONL log and of the ``"cluster"`` episode
traces.

The values were recorded before the platform's step moved onto the
compiled replay view and before the session kept a single decision
rule and a single driver, so they pin that replay, evaluation and
online recovery did not move by one bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.actions import default_catalog
from repro.cluster.fleet import simulate_cluster
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.evaluation.evaluator import PolicyEvaluator
from repro.mining.noise import filter_noise
from repro.policies.hybrid import HybridPolicy
from repro.policies.static import RandomPolicy
from repro.policies.user_defined import UserDefinedPolicy
from repro.recoverylog.io import write_log_jsonl
from repro.recoverylog.process import time_ordered_split
from repro.session.trace import EpisodeTelemetry
from repro.tracegen.catalog_gen import generate_fault_catalog
from repro.tracegen.generator import generate_trace
from repro.tracegen.workload import default_config, small_config
from repro.util.rng import RngStreams

TRAIN_FRACTION = 0.4
POLICIES = ("user-defined", "trained", "hybrid")


class TraceDigest(EpisodeTelemetry):
    """SHA-256 over every observed episode trace, in arrival order."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def on_episode(self, trace) -> None:
        record = [
            trace.origin,
            trace.error_type,
            trace.initial_cost.hex(),
            trace.handled,
            trace.forced_manual,
            [
                [
                    step.action,
                    step.source,
                    step.forced,
                    step.cost.hex(),
                    step.succeeded,
                    step.matched_log,
                    None
                    if step.expected_cost is None
                    else step.expected_cost.hex(),
                ]
                for step in trace.steps
            ],
        ]
        self._sha.update(json.dumps(record).encode("utf-8"))
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _fleet(config):
    return dataclasses.replace(
        config, cluster=dataclasses.replace(config.cluster, backend="fleet")
    )


def _fit(config):
    catalog = default_catalog()
    processes = generate_trace(config).log.to_processes()
    train, test = time_ordered_split(processes, TRAIN_FRACTION)
    learner = RecoveryPolicyLearner(catalog, PipelineConfig()).fit(train)
    return learner.trained_policy(), filter_noise(test).clean


def _evaluation_digests(config):
    """``{policy: ({type: (total, handled, est.hex, real.hex)}, sha)}``."""
    catalog = default_catalog()
    trained, held_out = _fit(_fleet(config))
    user = UserDefinedPolicy(catalog)
    policies = {
        "user-defined": user,
        "trained": trained,
        "hybrid": HybridPolicy(trained, user),
    }
    evaluator = PolicyEvaluator(
        held_out, catalog, error_types=trained.error_types()
    )
    digests = {}
    for name in POLICIES:
        telemetry = TraceDigest()
        result = evaluator.evaluate(policies[name], telemetry=telemetry)
        per_type = {
            error_type: (
                entry.total,
                entry.handled,
                entry.estimated_cost.hex(),
                entry.real_cost_handled.hex(),
            )
            for error_type, entry in result.per_type.items()
        }
        digests[name] = (per_type, telemetry.hexdigest())
    return digests


def _cluster_digests(config, tmp_path):
    """``{policy: (log JSONL SHA-256, cluster trace SHA-256)}``."""
    catalog = default_catalog()
    trained, _held_out = _fit(_fleet(config))
    user = UserDefinedPolicy(catalog)
    policies = {
        "user-defined": user,
        "random": RandomPolicy(catalog, seed=config.seed),
        "hybrid": HybridPolicy(trained, user),
    }
    digests = {}
    for name, policy in policies.items():
        telemetry = TraceDigest()
        log = simulate_cluster(
            config.cluster,
            generate_fault_catalog(config.catalog, config.seed),
            policy,
            catalog,
            RngStreams(config.seed),
            episode_telemetry=telemetry,
        )
        path = tmp_path / f"{name}.jsonl"
        write_log_jsonl(log, path)
        digests[name] = (
            hashlib.sha256(path.read_bytes()).hexdigest(),
            telemetry.hexdigest(),
        )
    return digests


def _assert_evaluation(got, expected):
    assert sorted(got) == sorted(expected)
    for name, (per_type, trace_sha256) in expected.items():
        got_types, got_sha256 = got[name]
        assert sorted(got_types) == sorted(per_type), name
        for error_type, values in per_type.items():
            assert got_types[error_type] == values, (name, error_type)
        assert got_sha256 == trace_sha256, name


# ----------------------------------------------------------------------
# Recorded values.
# ----------------------------------------------------------------------
SMALL_EVALUATION = {
    "hybrid": (
        {
            "error:Disk-Watchdog": (
                26, 26, "0x1.f9a991efae840p+14", "0x1.f9a991efae840p+14"
            ),
            "error:EventLog-Watchdog": (
                43, 43, "0x1.7d703934bd0f0p+16", "0x1.7d703934bd0f0p+16"
            ),
            "error:IFM-Watchdog": (
                70, 70, "0x1.dd45b16e5f268p+18", "0x1.a956bd5d0917ep+19"
            ),
            "error:Mem-Watchdog": (
                11, 11, "0x1.e26f9f86d4f80p+14", "0x1.e26f9f86d4f80p+14"
            ),
            "error:Net-Watchdog": (
                21, 21, "0x1.d2302348f6600p+15", "0x1.d2302348f6600p+15"
            ),
            "error:Sched-Watchdog": (
                5, 5, "0x1.07eab8dbaa700p+13", "0x1.07eab8dbaa700p+13"
            ),
            "error:Svc-Watchdog": (
                9, 9, "0x1.1c774aa722c00p+12", "0x1.1c774aa722c00p+12"
            ),
        },
        "4480e9152846c2f8c1afd99ce29db871815b132bf9c3c9c78d0f5bcfafe3efc3",
    ),
    "trained": (
        {
            "error:Disk-Watchdog": (
                26, 26, "0x1.f9a991efae840p+14", "0x1.f9a991efae840p+14"
            ),
            "error:EventLog-Watchdog": (
                43, 43, "0x1.7d703934bd0f0p+16", "0x1.7d703934bd0f0p+16"
            ),
            "error:IFM-Watchdog": (
                70, 70, "0x1.dd45b16e5f268p+18", "0x1.a956bd5d0917ep+19"
            ),
            "error:Mem-Watchdog": (
                11, 11, "0x1.e26f9f86d4f80p+14", "0x1.e26f9f86d4f80p+14"
            ),
            "error:Net-Watchdog": (
                21, 21, "0x1.d2302348f6600p+15", "0x1.d2302348f6600p+15"
            ),
            "error:Sched-Watchdog": (
                5, 5, "0x1.07eab8dbaa700p+13", "0x1.07eab8dbaa700p+13"
            ),
            "error:Svc-Watchdog": (
                9, 9, "0x1.1c774aa722c00p+12", "0x1.1c774aa722c00p+12"
            ),
        },
        "ddfd0ffc960f5c7f397276ea3e343e51aeb837fd856be7e860af01ab05e3c026",
    ),
    "user-defined": (
        {
            "error:Disk-Watchdog": (
                26, 26, "0x1.f9a991efae840p+14", "0x1.f9a991efae840p+14"
            ),
            "error:EventLog-Watchdog": (
                43, 43, "0x1.7d703934bd0f0p+16", "0x1.7d703934bd0f0p+16"
            ),
            "error:IFM-Watchdog": (
                70, 70, "0x1.a956bd5d0917ep+19", "0x1.a956bd5d0917ep+19"
            ),
            "error:Mem-Watchdog": (
                11, 11, "0x1.e26f9f86d4f80p+14", "0x1.e26f9f86d4f80p+14"
            ),
            "error:Net-Watchdog": (
                21, 21, "0x1.d2302348f6600p+15", "0x1.d2302348f6600p+15"
            ),
            "error:Sched-Watchdog": (
                5, 5, "0x1.07eab8dbaa700p+13", "0x1.07eab8dbaa700p+13"
            ),
            "error:Svc-Watchdog": (
                9, 9, "0x1.1c774aa722c00p+12", "0x1.1c774aa722c00p+12"
            ),
        },
        "33d31d09b7649f75a83a935d079bdc00b9a02b8f5053b57720192f64709ca55f",
    ),
}

DEFAULT_EVALUATION = {
    "hybrid": (
        {
            "error:Auth-Timeout": (
                55, 55, "0x1.1cc2206f700e0p+17", "0x1.1cc2206f700e0p+17"
            ),
            "error:Auth-Watchdog": (
                163, 163, "0x1.0b5267955d460p+19", "0x1.0b5267955d460p+19"
            ),
            "error:Cache-Timeout": (
                56, 56, "0x1.5cf4b14fd02e8p+19", "0x1.1cd2e20c129bcp+20"
            ),
            "error:Cache-Watchdog": (
                180, 180, "0x1.0be7590994768p+19", "0x1.0be7590994768p+19"
            ),
            "error:Crawler-Timeout": (
                49, 49, "0x1.fbc317defcb00p+16", "0x1.fbc317defcb00p+16"
            ),
            "error:Crawler-Watchdog": (
                154, 154, "0x1.c547deeae46f0p+18", "0x1.c547deeae46f0p+18"
            ),
            "error:Disk-Crc": (
                43, 43, "0x1.6e02b00174c96p+18", "0x1.6611d6985f1c8p+19"
            ),
            "error:Disk-Timeout": (
                90, 90, "0x1.c3785677ed0a0p+17", "0x1.c3785677ed0a0p+17"
            ),
            "error:Disk-Watchdog": (
                596, 596, "0x1.e044f2afe8cc0p+19", "0x1.e044f2afe8cc0p+19"
            ),
            "error:EventLog-Crc": (
                47, 47, "0x1.8dbb8a69c49c0p+16", "0x1.8dbb8a69c49c0p+16"
            ),
            "error:EventLog-Timeout": (
                85, 85, "0x1.13841d5769960p+17", "0x1.13841d5769960p+17"
            ),
            "error:EventLog-Watchdog": (
                789, 789, "0x1.edeb0124314b8p+19", "0x1.edeb0124314b8p+19"
            ),
            "error:Fs-Crc": (
                33, 33, "0x1.1902036b42140p+16", "0x1.1902036b42140p+16"
            ),
            "error:Fs-Timeout": (
                69, 69, "0x1.49bd328cc0e00p+16", "0x1.49bd328cc0e00p+16"
            ),
            "error:Fs-Watchdog": (
                251, 251, "0x1.312c7a7fb9788p+19", "0x1.312c7a7fb9788p+19"
            ),
            "error:Gc-Timeout": (
                60, 60, "0x1.8256cddd7f0e0p+17", "0x1.8256cddd7f0e0p+17"
            ),
            "error:Gc-Watchdog": (
                128, 128, "0x1.77175aa429cb0p+18", "0x1.77175aa429cb0p+18"
            ),
            "error:IFM-Crc": (
                36, 36, "0x1.962a0346a1c80p+15", "0x1.962a0346a1c80p+15"
            ),
            "error:IFM-Timeout": (
                100, 100, "0x1.c0e5349c1f4a0p+17", "0x1.c0e5349c1f4a0p+17"
            ),
            "error:IFM-Watchdog": (
                967, 967, "0x1.3a6cae19fa8e0p+23", "0x1.c5c75cfe3ab8ap+23"
            ),
            "error:Index-Timeout": (
                68, 68, "0x1.c8e13ca06e700p+16", "0x1.c8e13ca06e700p+16"
            ),
            "error:Index-Watchdog": (
                232, 232, "0x1.5aa968ccd20a0p+18", "0x1.5aa968ccd20a0p+18"
            ),
            "error:Mem-Crc": (
                39, 39, "0x1.4cc44d752e3c0p+16", "0x1.4cc44d752e3c0p+16"
            ),
            "error:Mem-Timeout": (
                88, 88, "0x1.13fc4ba17f5c0p+17", "0x1.13fc4ba17f5c0p+17"
            ),
            "error:Mem-Watchdog": (
                410, 410, "0x1.2a046f993ac58p+20", "0x1.2a046f993ac58p+20"
            ),
            "error:Net-Timeout": (
                85, 85, "0x1.8909d49fdd340p+17", "0x1.8909d49fdd340p+17"
            ),
            "error:Net-Watchdog": (
                475, 475, "0x1.307bb8d1326a0p+20", "0x1.307bb8d1326a0p+20"
            ),
            "error:Ntp-Timeout": (
                38, 38, "0x1.7d7dc29712500p+15", "0x1.7d7dc29712500p+15"
            ),
            "error:Ntp-Watchdog": (
                127, 127, "0x1.01fed202d56d0p+18", "0x1.01fed202d56d0p+18"
            ),
            "error:Rpc-Timeout": (
                65, 65, "0x1.20267908d1fa0p+17", "0x1.20267908d1fa0p+17"
            ),
            "error:Rpc-Watchdog": (
                189, 189, "0x1.1af6ad9af66d0p+18", "0x1.1af6ad9af66d0p+18"
            ),
            "error:Sched-Crc": (
                25, 25, "0x1.39c4e612368f2p+18", "0x1.9341d81898760p+18"
            ),
            "error:Sched-Watchdog": (
                269, 269, "0x1.4ef42b7ba0d30p+19", "0x1.4ef42b7ba0d30p+19"
            ),
            "error:Store-Timeout": (
                50, 50, "0x1.779cf50949580p+15", "0x1.779cf50949580p+15"
            ),
            "error:Store-Watchdog": (
                141, 141, "0x1.a4c18ee0ea750p+18", "0x1.a4c18ee0ea750p+18"
            ),
            "error:Svc-Crc": (
                32, 32, "0x1.329f6dc103e40p+16", "0x1.329f6dc103e40p+16"
            ),
            "error:Svc-Timeout": (
                82, 82, "0x1.3f3b76549c844p+16", "0x1.2da0fb6119fc0p+16"
            ),
            "error:Svc-Watchdog": (
                351, 351, "0x1.c5908b4ad76b0p+18", "0x1.c5908b4ad76b0p+18"
            ),
            "errorHardware:Net-Crc": (
                44, 44, "0x1.e7a538243dc63p+22", "0x1.ff15acfa85d3ap+22"
            ),
            "errorHardware:Sched-Timeout": (
                72, 72, "0x1.82c1b8386168cp+23", "0x1.938a13bbf5a14p+23"
            ),
        },
        "8084923227d5f89ffc54676d29fdf913b84aa0d1d30841158ba407c31081a0e4",
    ),
    "trained": (
        {
            "error:Auth-Timeout": (
                55, 55, "0x1.1cc2206f700e0p+17", "0x1.1cc2206f700e0p+17"
            ),
            "error:Auth-Watchdog": (
                163, 162, "0x1.00a994d3eb600p+19", "0x1.00a994d3eb600p+19"
            ),
            "error:Cache-Timeout": (
                56, 56, "0x1.5cf4b14fd02e8p+19", "0x1.1cd2e20c129bcp+20"
            ),
            "error:Cache-Watchdog": (
                180, 180, "0x1.0be7590994768p+19", "0x1.0be7590994768p+19"
            ),
            "error:Crawler-Timeout": (
                49, 49, "0x1.fbc317defcb00p+16", "0x1.fbc317defcb00p+16"
            ),
            "error:Crawler-Watchdog": (
                154, 154, "0x1.c547deeae46f0p+18", "0x1.c547deeae46f0p+18"
            ),
            "error:Disk-Crc": (
                43, 43, "0x1.6e02b00174c96p+18", "0x1.6611d6985f1c8p+19"
            ),
            "error:Disk-Timeout": (
                90, 90, "0x1.c3785677ed0a0p+17", "0x1.c3785677ed0a0p+17"
            ),
            "error:Disk-Watchdog": (
                596, 595, "0x1.d63f03f5e7d40p+19", "0x1.d63f03f5e7d40p+19"
            ),
            "error:EventLog-Crc": (
                47, 47, "0x1.8dbb8a69c49c0p+16", "0x1.8dbb8a69c49c0p+16"
            ),
            "error:EventLog-Timeout": (
                85, 83, "0x1.ac98677b5da40p+16", "0x1.ac98677b5da40p+16"
            ),
            "error:EventLog-Watchdog": (
                789, 789, "0x1.edeb0124314b8p+19", "0x1.edeb0124314b8p+19"
            ),
            "error:Fs-Crc": (
                33, 32, "0x1.c38f6671efa80p+15", "0x1.c38f6671efa80p+15"
            ),
            "error:Fs-Timeout": (
                69, 67, "0x1.045be883a3980p+16", "0x1.045be883a3980p+16"
            ),
            "error:Fs-Watchdog": (
                251, 251, "0x1.312c7a7fb9788p+19", "0x1.312c7a7fb9788p+19"
            ),
            "error:Gc-Timeout": (
                60, 60, "0x1.8256cddd7f0e0p+17", "0x1.8256cddd7f0e0p+17"
            ),
            "error:Gc-Watchdog": (
                128, 128, "0x1.77175aa429cb0p+18", "0x1.77175aa429cb0p+18"
            ),
            "error:IFM-Crc": (
                36, 35, "0x1.58fae7c359e80p+15", "0x1.58fae7c359e80p+15"
            ),
            "error:IFM-Timeout": (
                100, 100, "0x1.c0e5349c1f4a0p+17", "0x1.c0e5349c1f4a0p+17"
            ),
            "error:IFM-Watchdog": (
                967, 944, "0x1.7ad295e299101p+22", "0x1.577ec106bb067p+23"
            ),
            "error:Index-Timeout": (
                68, 68, "0x1.c8e13ca06e700p+16", "0x1.c8e13ca06e700p+16"
            ),
            "error:Index-Watchdog": (
                232, 232, "0x1.5aa968ccd20a0p+18", "0x1.5aa968ccd20a0p+18"
            ),
            "error:Mem-Crc": (
                39, 38, "0x1.25603c9eff140p+16", "0x1.25603c9eff140p+16"
            ),
            "error:Mem-Timeout": (
                88, 88, "0x1.13fc4ba17f5c0p+17", "0x1.13fc4ba17f5c0p+17"
            ),
            "error:Mem-Watchdog": (
                410, 409, "0x1.26b7c59f1ee88p+20", "0x1.26b7c59f1ee88p+20"
            ),
            "error:Net-Timeout": (
                85, 85, "0x1.8909d49fdd340p+17", "0x1.8909d49fdd340p+17"
            ),
            "error:Net-Watchdog": (
                475, 475, "0x1.307bb8d1326a0p+20", "0x1.307bb8d1326a0p+20"
            ),
            "error:Ntp-Timeout": (
                38, 37, "0x1.1fea02f6ac100p+15", "0x1.1fea02f6ac100p+15"
            ),
            "error:Ntp-Watchdog": (
                127, 127, "0x1.01fed202d56d0p+18", "0x1.01fed202d56d0p+18"
            ),
            "error:Rpc-Timeout": (
                65, 65, "0x1.20267908d1fa0p+17", "0x1.20267908d1fa0p+17"
            ),
            "error:Rpc-Watchdog": (
                189, 188, "0x1.092a8c2449a10p+18", "0x1.092a8c2449a10p+18"
            ),
            "error:Sched-Crc": (
                25, 22, "0x1.fa33cbf50d58fp+16", "0x1.c6ea588023940p+17"
            ),
            "error:Sched-Watchdog": (
                269, 269, "0x1.4ef42b7ba0d30p+19", "0x1.4ef42b7ba0d30p+19"
            ),
            "error:Store-Timeout": (
                50, 49, "0x1.5a97803726d80p+15", "0x1.5a97803726d80p+15"
            ),
            "error:Store-Watchdog": (
                141, 137, "0x1.75f6a57aa9bb0p+18", "0x1.75f6a57aa9bb0p+18"
            ),
            "error:Svc-Crc": (
                32, 31, "0x1.076be7661f140p+16", "0x1.076be7661f140p+16"
            ),
            "error:Svc-Timeout": (
                82, 82, "0x1.3f3b76549c844p+16", "0x1.2da0fb6119fc0p+16"
            ),
            "error:Svc-Watchdog": (
                351, 351, "0x1.c5908b4ad76b0p+18", "0x1.c5908b4ad76b0p+18"
            ),
            "errorHardware:Net-Crc": (
                44, 44, "0x1.e7a538243dc63p+22", "0x1.ff15acfa85d3ap+22"
            ),
            "errorHardware:Sched-Timeout": (
                72, 72, "0x1.82c1b8386168cp+23", "0x1.938a13bbf5a14p+23"
            ),
        },
        "d7c979896784bf58bbd6697fbb8c72ed85c8e5ea46a2c9c6662d5ace156259b5",
    ),
    "user-defined": (
        {
            "error:Auth-Timeout": (
                55, 55, "0x1.1cc2206f700e0p+17", "0x1.1cc2206f700e0p+17"
            ),
            "error:Auth-Watchdog": (
                163, 163, "0x1.0b5267955d460p+19", "0x1.0b5267955d460p+19"
            ),
            "error:Cache-Timeout": (
                56, 56, "0x1.1cd2e20c129bcp+20", "0x1.1cd2e20c129bcp+20"
            ),
            "error:Cache-Watchdog": (
                180, 180, "0x1.0be7590994768p+19", "0x1.0be7590994768p+19"
            ),
            "error:Crawler-Timeout": (
                49, 49, "0x1.fbc317defcb00p+16", "0x1.fbc317defcb00p+16"
            ),
            "error:Crawler-Watchdog": (
                154, 154, "0x1.c547deeae46f0p+18", "0x1.c547deeae46f0p+18"
            ),
            "error:Disk-Crc": (
                43, 43, "0x1.6611d6985f1c8p+19", "0x1.6611d6985f1c8p+19"
            ),
            "error:Disk-Timeout": (
                90, 90, "0x1.c3785677ed0a0p+17", "0x1.c3785677ed0a0p+17"
            ),
            "error:Disk-Watchdog": (
                596, 596, "0x1.e044f2afe8cc0p+19", "0x1.e044f2afe8cc0p+19"
            ),
            "error:EventLog-Crc": (
                47, 47, "0x1.8dbb8a69c49c0p+16", "0x1.8dbb8a69c49c0p+16"
            ),
            "error:EventLog-Timeout": (
                85, 85, "0x1.13841d5769960p+17", "0x1.13841d5769960p+17"
            ),
            "error:EventLog-Watchdog": (
                789, 789, "0x1.edeb0124314b8p+19", "0x1.edeb0124314b8p+19"
            ),
            "error:Fs-Crc": (
                33, 33, "0x1.1902036b42140p+16", "0x1.1902036b42140p+16"
            ),
            "error:Fs-Timeout": (
                69, 69, "0x1.49bd328cc0e00p+16", "0x1.49bd328cc0e00p+16"
            ),
            "error:Fs-Watchdog": (
                251, 251, "0x1.312c7a7fb9788p+19", "0x1.312c7a7fb9788p+19"
            ),
            "error:Gc-Timeout": (
                60, 60, "0x1.8256cddd7f0e0p+17", "0x1.8256cddd7f0e0p+17"
            ),
            "error:Gc-Watchdog": (
                128, 128, "0x1.77175aa429cb0p+18", "0x1.77175aa429cb0p+18"
            ),
            "error:IFM-Crc": (
                36, 36, "0x1.962a0346a1c80p+15", "0x1.962a0346a1c80p+15"
            ),
            "error:IFM-Timeout": (
                100, 100, "0x1.c0e5349c1f4a0p+17", "0x1.c0e5349c1f4a0p+17"
            ),
            "error:IFM-Watchdog": (
                967, 967, "0x1.c5c75cfe3ab8ap+23", "0x1.c5c75cfe3ab8ap+23"
            ),
            "error:Index-Timeout": (
                68, 68, "0x1.c8e13ca06e700p+16", "0x1.c8e13ca06e700p+16"
            ),
            "error:Index-Watchdog": (
                232, 232, "0x1.5aa968ccd20a0p+18", "0x1.5aa968ccd20a0p+18"
            ),
            "error:Mem-Crc": (
                39, 39, "0x1.4cc44d752e3c0p+16", "0x1.4cc44d752e3c0p+16"
            ),
            "error:Mem-Timeout": (
                88, 88, "0x1.13fc4ba17f5c0p+17", "0x1.13fc4ba17f5c0p+17"
            ),
            "error:Mem-Watchdog": (
                410, 410, "0x1.2a046f993ac58p+20", "0x1.2a046f993ac58p+20"
            ),
            "error:Net-Timeout": (
                85, 85, "0x1.8909d49fdd340p+17", "0x1.8909d49fdd340p+17"
            ),
            "error:Net-Watchdog": (
                475, 475, "0x1.307bb8d1326a0p+20", "0x1.307bb8d1326a0p+20"
            ),
            "error:Ntp-Timeout": (
                38, 38, "0x1.7d7dc29712500p+15", "0x1.7d7dc29712500p+15"
            ),
            "error:Ntp-Watchdog": (
                127, 127, "0x1.01fed202d56d0p+18", "0x1.01fed202d56d0p+18"
            ),
            "error:Rpc-Timeout": (
                65, 65, "0x1.20267908d1fa0p+17", "0x1.20267908d1fa0p+17"
            ),
            "error:Rpc-Watchdog": (
                189, 189, "0x1.1af6ad9af66d0p+18", "0x1.1af6ad9af66d0p+18"
            ),
            "error:Sched-Crc": (
                25, 25, "0x1.9341d81898760p+18", "0x1.9341d81898760p+18"
            ),
            "error:Sched-Watchdog": (
                269, 269, "0x1.4ef42b7ba0d30p+19", "0x1.4ef42b7ba0d30p+19"
            ),
            "error:Store-Timeout": (
                50, 50, "0x1.779cf50949580p+15", "0x1.779cf50949580p+15"
            ),
            "error:Store-Watchdog": (
                141, 141, "0x1.a4c18ee0ea750p+18", "0x1.a4c18ee0ea750p+18"
            ),
            "error:Svc-Crc": (
                32, 32, "0x1.329f6dc103e40p+16", "0x1.329f6dc103e40p+16"
            ),
            "error:Svc-Timeout": (
                82, 82, "0x1.2da0fb6119fc0p+16", "0x1.2da0fb6119fc0p+16"
            ),
            "error:Svc-Watchdog": (
                351, 351, "0x1.c5908b4ad76b0p+18", "0x1.c5908b4ad76b0p+18"
            ),
            "errorHardware:Net-Crc": (
                44, 44, "0x1.ff15acfa85d3ap+22", "0x1.ff15acfa85d3ap+22"
            ),
            "errorHardware:Sched-Timeout": (
                72, 72, "0x1.938a13bbf5a14p+23", "0x1.938a13bbf5a14p+23"
            ),
        },
        "7bddacb523690a17249beaae501df23d1098c9959c5357806b45758ed41897c8",
    ),
}

SMALL_EVENT_CLUSTER = {
    "hybrid": (
        "384261af60a9039fe34127c2a77e74b620fe35ab0bf025e217e3cb4f258fde61",
        "8534dbd0a6d7896094e2c3ac5e65c0c283f34c41ae7472ba5b21bb17253bf30f",
    ),
    "random": (
        "476269a522c01e10a13259cde56458f7cfcee36e7f3c8fca6dfdd1d54ce8bf4c",
        "7cd591fc2f991d044a92e0274b76fcaa07d33cfcbb9917af2c3598d9debf8148",
    ),
    "user-defined": (
        "b121c7dbe5bb564a427e33e5479ce6dc06d71df00be00dc04437dc61e8b39483",
        "370388325d52338cf47590df558aa20d470c99c412afd31bf22d6b1fbd011fa0",
    ),
}


def test_small_scale_evaluation_digests():
    _assert_evaluation(
        _evaluation_digests(small_config(3)), SMALL_EVALUATION
    )


def test_small_scale_event_cluster_digests(tmp_path):
    assert _cluster_digests(small_config(3), tmp_path) == SMALL_EVENT_CLUSTER


@pytest.mark.slow
def test_default_scale_evaluation_digests():
    _assert_evaluation(
        _evaluation_digests(default_config(3)), DEFAULT_EVALUATION
    )
