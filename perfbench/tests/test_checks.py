"""Output checks and the acked-ingests-equal-KB-growth accounting."""

import json
import math
import threading

import numpy as np
import pytest

from checks import (check_ingest_accounting, check_reply, check_session,
                    strict_json)
from repro.core.measurement import REAL, Measurement, Observation, TuningHistory
from repro.core.tuner import TuningResult
from repro.systems import DbmsSimulator


def _result(observations, best_config):
    history = TuningHistory()
    for obs in observations:
        history.record(obs)
    return TuningResult(
        tuner_name="hand-made", category="experiment-driven",
        best_config=best_config, best_runtime_s=1.0,
        n_real_runs=len(observations), experiment_time_s=0.0, history=history,
    )


def _obs(config, runtime_s=1.0, failed=False, fidelity=1.0):
    measurement = Measurement(runtime_s=math.inf if failed else runtime_s,
                              failed=failed)
    return Observation(config, measurement, source=REAL, fidelity=fidelity)


@pytest.fixture
def configs():
    space = DbmsSimulator().config_space
    rng = np.random.default_rng(0)
    return space.default_configuration(), space.sample_configuration(rng)


def test_passing_session_has_no_problems(configs):
    default, best = configs
    result = _result([_obs(default, 2.0), _obs(best, 1.0)], best)
    assert check_session(result, max_runs=2,
                         rerun=Measurement(runtime_s=1.0)) == []


def test_hand_made_failing_session_fails_every_check(configs):
    default, best = configs
    result = _result([
        _obs(default, 2.0),
        _obs(best, failed=True),          # the recommendation failed...
        _obs(best, 0.5, fidelity=0.25),   # ...and was only screened
        _obs(default, 2.0),
    ], best)
    problems = check_session(result, max_runs=3, rerun=Measurement.failure())
    assert len(problems) == 3
    assert "budget" in problems[0]
    assert "full-fidelity" in problems[1]
    assert "plain simulator" in problems[2]


def test_fractional_charges_within_budget_pass(configs):
    default, best = configs
    screens = [_obs(best, 0.5, fidelity=0.1) for _ in range(10)]
    result = _result([_obs(default, 2.0)] + screens + [_obs(best, 1.0)], best)
    assert check_session(result, max_runs=3,
                         rerun=Measurement(runtime_s=1.0)) == []


def test_reply_checks():
    ok = json.dumps({"recommended": {"config": {}}}).encode()
    assert check_reply("recommend", 200, ok)[1] is None
    assert "HTTP 429" in check_reply("recommend", 429, ok)[1]
    assert "strict JSON" in check_reply("recommend", 200, b'{"x": NaN}')[1]
    assert "strict JSON" in check_reply("ingest", 200, b'{"x": Infinity}')[1]
    assert "null" in check_reply("recommend", 200, b'{"recommended": null}')[1]
    assert check_reply("ingest", 200, b'{"session_id": 7, "n_sessions": 8}')[1] is None
    assert "session id" in check_reply("ingest", 200, b'{"n_sessions": 8}')[1]
    with pytest.raises(ValueError):
        strict_json(b"[-Infinity]")


def test_ingest_accounting_arithmetic():
    assert check_ingest_accounting(acked=3, before=10, after=13) is None
    assert "grew by 2" in check_ingest_accounting(acked=3, before=10, after=12)
    assert "grew by 4" in check_ingest_accounting(acked=3, before=10, after=14)


def test_acked_ingests_equal_kb_growth_through_the_service(tmp_path):
    from repro.core.registry import make_tuner
    from repro.core.tuner import Budget
    from repro.kb import KnowledgeBase
    from repro.kb.service import make_server
    from repro.workloads import htap_mixed
    from serve import _drive

    system, workload = DbmsSimulator(), htap_mixed()
    path = str(tmp_path / "kb.sqlite")
    kb = KnowledgeBase(path)
    result = make_tuner("rrs").tune(system, workload, Budget(max_runs=6),
                                    rng=np.random.default_rng(3))
    kb.ingest_result(system, workload, result, seed=3)
    body = json.dumps(kb.session_payload(system, workload, result)).encode()
    before = len(kb)
    server = make_server(kb, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    replies = []
    try:
        _drive(server.server_address[1], [("ingest", body)] * 5 + [
            ("ingest", b'{"kind": "not-a-session"}')], replies)
    finally:
        server.shutdown()
        server.server_close()  # drains the write-behind queue
        kb.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    acked = sum(1 for endpoint, status, _, data in replies
                if check_reply(endpoint, status, data)[1] is None)
    assert acked == 5 and replies[-1][1] == 400
    with KnowledgeBase(path) as reopened:
        after = len(reopened)
    assert check_ingest_accounting(acked, before, after) is None
    assert check_ingest_accounting(acked + 1, before, after) is not None
