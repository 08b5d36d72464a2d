"""Frozen training digests of the pipeline's policies and Q tables.

Each case generates a fleet-backend trace, takes the first 40% of its
recovery processes in time order, fits ``RecoveryPolicyLearner`` with
the default ``PipelineConfig`` and compares, byte for byte:

* the SHA-256 of the ``save_policy`` JSON;
* per error type, the SHA-256 of ``qtable_to_payload`` (canonical JSON)
  and the course's ``sweeps_run``, ``episodes`` and ``converged``.

The digests were recorded before the dict Q-table backend and the
session-driven episode loop were retired from the package, so they pin
that the single id-indexed course reproduces them exactly.  A change
that moves any of them changes trained policies and must say so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.actions import default_catalog
from repro.core.config import PipelineConfig
from repro.core.pipeline import RecoveryPolicyLearner
from repro.policies.serialization import qtable_to_payload, save_policy
from repro.recoverylog.process import time_ordered_split
from repro.tracegen.generator import generate_trace
from repro.tracegen.workload import default_config, small_config

TRAIN_FRACTION = 0.4

#: error type -> (qtable_to_payload SHA-256, sweeps_run, episodes, converged)
SMALL_POLICY_SHA256 = (
    "aca2b42600824a9671e629ef406d0fd7b6730d321c977d4a534644f0c071e5b7"
)
SMALL_TYPES = {
    "error:Disk-Watchdog": (
        "d049c5a5070ec56973e1aed1128ce584248cd6ce34c01c74986bca836bee6328",
        80,
        1476,
        True,
    ),
    "error:EventLog-Watchdog": (
        "ca9e10cd16c9d468cea6788cc043adabe8240737225808e59e9c0654397cb621",
        80,
        2630,
        True,
    ),
    "error:IFM-Watchdog": (
        "814a5732c5a3dadc582aef72b7f7b8b2115d8960f406a0f6efbc75d3b7efaa71",
        80,
        2646,
        True,
    ),
    "error:Mem-Watchdog": (
        "7d332571fe48b1ea43da648af12cc7d1ec63291da3a9dc2d27a83b63489df24d",
        80,
        492,
        True,
    ),
    "error:Net-Watchdog": (
        "1863d7f33502e45d62b78902482733e5f07269f11c3f4842e1dd0aa15e66fdd1",
        80,
        902,
        True,
    ),
    "error:Sched-Watchdog": (
        "da719b755ba045eb7c4be7499870ab684aeafeb575149e959f9e85b3d9a678e7",
        80,
        656,
        True,
    ),
    "error:Svc-Watchdog": (
        "f45a28d75c7074b9ebb4e83577f28d92f516ed51ce226b0e114ec8aad1f03a3a",
        80,
        820,
        True,
    ),
}

DEFAULT_POLICY_SHA256 = (
    "e7c73f10e4b97e51f6e70c0c71e6a3fbf760d6cf477972a6a5c0e91b5ca43992"
)
DEFAULT_TYPES = {
    "error:Auth-Timeout": (
        "5e6b91370133f1b1fdaa385a80ab11d26a2845435d2b74b2feea5d9f1fea16bc",
        80,
        2642,
        True,
    ),
    "error:Auth-Watchdog": (
        "abfc87a81194220bb0c434455094b1dc70041d382223a1eb367afd84f7dea7a9",
        80,
        2788,
        True,
    ),
    "error:Cache-Timeout": (
        "eeb4b71dc32c42b5790330b88881081cae6590a1dc9a1e20cbbbf81c03af4953",
        80,
        2644,
        True,
    ),
    "error:Cache-Watchdog": (
        "621af7eaf0b3977c4a721364232de865ea66dd55a52b70364884b27ea6c10926",
        80,
        2814,
        True,
    ),
    "error:Crawler-Timeout": (
        "7c65ab36b2e3eacdb3f63c9c990acff687220208ff9f8675eb3a366f3ae06c3a",
        80,
        2652,
        True,
    ),
    "error:Crawler-Watchdog": (
        "ab683aa64b7f4e0f12e9d5de50dc1d896d98741b0a257bb9a84a4db146ba043d",
        80,
        2788,
        True,
    ),
    "error:Disk-Crc": (
        "3b17ffb755d94b791302997ef39e76c77962c71779640e0a2d9212e8961010cc",
        80,
        1722,
        True,
    ),
    "error:Disk-Timeout": (
        "a1c8330c12bfd7c9f9aa37ec39ccf5ba4b03ca1c3a3d85bd2e9281a5f7fa70ad",
        80,
        2668,
        True,
    ),
    "error:Disk-Watchdog": (
        "7b68f5896eb46a3f0131742d06b8e3c304b3daf652c12632149101c623187343",
        80,
        3314,
        True,
    ),
    "error:EventLog-Crc": (
        "4f0b74435b2d2b0421ea0fc78d6136a4ca45ccc688aa60917e9c4595e2148466",
        80,
        1148,
        True,
    ),
    "error:EventLog-Timeout": (
        "476a2ddb2da8e140c2adcfe4cd1b4b00c434178016b57a4a5f65bfa4d6ff01f9",
        80,
        2686,
        True,
    ),
    "error:EventLog-Watchdog": (
        "e1b1ee7b1fcb11898c41527c26bd938139b84eb7d2c0a3cfce49e5ef62aa5048",
        80,
        3516,
        True,
    ),
    "error:Fs-Crc": (
        "35f44ff76e7df09d7543c2b477a75d87b37c826db4c9154b605457da6d42e7aa",
        80,
        2050,
        True,
    ),
    "error:Fs-Timeout": (
        "94661b10c60a74c64a0e6bfc6891b29f60012ec1dac0483df30f5a553b0989b1",
        80,
        2638,
        True,
    ),
    "error:Fs-Watchdog": (
        "615b49760d71f0a802dda08245723452c37814165a65a7c45f57e4dd985c37c4",
        80,
        2928,
        True,
    ),
    "error:Gc-Timeout": (
        "1fa689cd915cbde260b83130a0d2fc58d746b03e4f93b1b9dd24c624001c98c1",
        80,
        2630,
        True,
    ),
    "error:Gc-Watchdog": (
        "386afcaeb08ccf452ad2af0d943af5ecd41cbdc47c6c5f32c3b00ece9fde5f8e",
        80,
        2740,
        True,
    ),
    "error:IFM-Crc": (
        "d1ab74478f4cd6565684692c52fb15f3c658643268087b462924fd3ca29a0bd1",
        80,
        1886,
        True,
    ),
    "error:IFM-Timeout": (
        "f63aeeeca20f73469cd99963043190e2c5f778fc5e2ef5254750d2d11948328c",
        80,
        2690,
        True,
    ),
    "error:IFM-Watchdog": (
        "58e03080aac0f700ce42183326232291998c9543235eea6cbe6753fd92d1f716",
        80,
        3846,
        True,
    ),
    "error:Index-Timeout": (
        "7bfe8ccc75c3aa64958bb99d7fc129f354fa70e3b670e004b56ef0518a6fc417",
        80,
        2668,
        True,
    ),
    "error:Index-Watchdog": (
        "71e1aee921d724ab39cbdea64338fc66e7e42b70ea668f489cd2e584060be6ba",
        80,
        2878,
        True,
    ),
    "error:Mem-Crc": (
        "e6c688cd74a17969956f9d59ca5b70601b5130cca7fd9f0a5c48974b3c26b468",
        80,
        1312,
        True,
    ),
    "error:Mem-Timeout": (
        "607f4b811c93d33844760b1c83ff6268c080733adb9ae2b227b9e3171d137e71",
        80,
        2676,
        True,
    ),
    "error:Mem-Watchdog": (
        "141a96cf9da290e9fb8ac0db8377ce61548fcfe3ea62d0d2d016477444436e3d",
        80,
        3126,
        True,
    ),
    "error:Net-Timeout": (
        "845d344c55bcb6518802911770376aeb8cbba0be99827b2e95618bf00900a06b",
        80,
        2696,
        True,
    ),
    "error:Net-Watchdog": (
        "d26947e5b5ca847388ec55a587a2e222c1b1cb0b8560dbc298e3798940d1f2c0",
        80,
        3222,
        True,
    ),
    "error:Ntp-Timeout": (
        "dd5e7e5aaf2379c0be3688919652c30fbacc13c30ca8f5c009311896f79dc14b",
        80,
        2378,
        True,
    ),
    "error:Ntp-Watchdog": (
        "d71f325ccc09c2ca6e75404b5ea116dba5de6c6d0089416452d5359b848fa76e",
        80,
        2684,
        True,
    ),
    "error:Rpc-Timeout": (
        "6f8656fab5ff591ba7f7da3f9146b1a67af30c0482faf6e0d762f3a50c2abccc",
        80,
        2642,
        True,
    ),
    "error:Rpc-Watchdog": (
        "4b420d651ff5e196dd2a45c30f2a67d974f50f5ce4676c70047e0b7da2eacb33",
        80,
        2802,
        True,
    ),
    "error:Sched-Crc": (
        "ac6bb2cf392e8194a5e188d1346bde3915e6ff043d114ee911358467e7fed7e7",
        80,
        1640,
        True,
    ),
    "error:Sched-Watchdog": (
        "72e2f2aeb70e9bfec416cad6576fc647012f2abad1720e78b8c1a779165e9020",
        80,
        2974,
        True,
    ),
    "error:Store-Timeout": (
        "290559587c4d79f6b7cfc69818edda26c0765159ef52de9567ba321364962975",
        80,
        2542,
        True,
    ),
    "error:Store-Watchdog": (
        "99e5e1da3b74ac4319e7079a2ed18d67fe30a0ea10e69ed5cb73283df0592ff5",
        80,
        2726,
        True,
    ),
    "error:Svc-Crc": (
        "bdfa8a22da06a27a31a0d1173ea35591f4216f370f9891cd8d72d0c4a6ce0786",
        80,
        2132,
        True,
    ),
    "error:Svc-Timeout": (
        "6234a2cbd8121e3b7c0515e5765b0432ffacd04ddc6e6b8f2cd1d077a22e998e",
        80,
        2662,
        True,
    ),
    "error:Svc-Watchdog": (
        "8b9e8aa78860add7e0bffe11ead8072277b2227655cf26c42882c08535271da6",
        80,
        3042,
        True,
    ),
    "errorHardware:Net-Crc": (
        "dfe5fa68c9d14e51dddf9532cb8272ec77c0af45163058c9c932982a60b71d64",
        80,
        1886,
        True,
    ),
    "errorHardware:Sched-Timeout": (
        "21653577baf119f1e9f0e33694dc4867dfe3acfe9057b594e57f738a4fcacb3f",
        80,
        2642,
        True,
    ),
}


def _fit_digests(config, tmp_path):
    config = dataclasses.replace(
        config, cluster=dataclasses.replace(config.cluster, backend="fleet")
    )
    processes = generate_trace(config).log.to_processes()
    train, _test = time_ordered_split(processes, TRAIN_FRACTION)
    learner = RecoveryPolicyLearner(default_catalog(), PipelineConfig())
    learner.fit(train)
    path = tmp_path / "policy.json"
    save_policy(learner.trained_policy(), path)
    policy_sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    per_type = {}
    for error_type, result in learner.training_result_.per_type.items():
        payload = json.dumps(qtable_to_payload(result.qtable), sort_keys=True)
        per_type[error_type] = (
            hashlib.sha256(payload.encode("utf-8")).hexdigest(),
            result.sweeps_run,
            result.episodes,
            result.converged,
        )
    return policy_sha256, per_type


def _assert_digests(got, policy_sha256, types):
    got_policy, got_types = got
    assert sorted(got_types) == sorted(types)
    for error_type, expected in types.items():
        assert got_types[error_type] == expected, error_type
    assert got_policy == policy_sha256


def test_small_scale_digests(tmp_path):
    _assert_digests(
        _fit_digests(small_config(3), tmp_path),
        SMALL_POLICY_SHA256,
        SMALL_TYPES,
    )


@pytest.mark.slow
def test_default_scale_digests(tmp_path):
    _assert_digests(
        _fit_digests(default_config(3), tmp_path),
        DEFAULT_POLICY_SHA256,
        DEFAULT_TYPES,
    )
