"""The runtime reuse-correctness oracle (``LimaConfig.verify_reuse``):
clean runs verify quietly, the verified-once memo bounds overhead, and a
planted cache-poisoning mutation raises a structured
``ReuseVerificationError`` (acceptance criterion, oracle half)."""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession
from repro.api import input_leaf_item
from repro.cli import build_parser
from repro.data.values import MatrixValue, wrap
from repro.errors import ReuseVerificationError
from repro.lineage.item import LineageItem
from repro.reuse.cache import LineageCache
from repro.reuse.verify import ReuseVerifier

PROGRAM = """
X = rand(rows=6, cols=4, seed=11);
Y = rand(rows=4, cols=6, seed=12);
A = X %*% Y;
B = X %*% Y;
out = sum(A) + sum(B);
"""


@pytest.fixture
def poisoned_cache(monkeypatch):
    original = LineageCache.fulfill

    def poisoned(self, item, value, lineage, compute_time):
        if isinstance(value, MatrixValue) and value.data.size:
            data = value.data.copy()
            data.flat[0] += 1e-3
            value = MatrixValue(data)
        return original(self, item, value, lineage, compute_time)

    monkeypatch.setattr(LineageCache, "fulfill", poisoned)


def test_oracle_catches_planted_poisoning(poisoned_cache):
    config = LimaConfig.full().with_(verify_reuse=1.0)
    session = LimaSession(config, seed=7)
    with pytest.raises(ReuseVerificationError) as excinfo:
        session.run(PROGRAM, inputs={}, seed=7)
    err = excinfo.value
    assert err.kind == "full"
    assert err.item is not None
    assert err.max_abs_diff == pytest.approx(1e-3, rel=1e-6)
    # both sides of the comparison are carried in the error
    diff = np.abs(np.asarray(err.cached) - np.asarray(err.recomputed))
    assert float(diff.max()) == pytest.approx(1e-3, rel=1e-6)


def test_clean_session_verifies_quietly():
    config = LimaConfig.full().with_(verify_reuse=1.0)
    session = LimaSession(config, seed=7)
    for _ in range(2):
        session.run(PROGRAM, inputs={}, seed=7)
    stats = session.verifier.stats
    assert stats.checks > 0
    assert stats.mismatches == 0


def test_verified_once_memo_bounds_overhead():
    config = LimaConfig.full().with_(verify_reuse=1.0)
    session = LimaSession(config, seed=7)
    session.run(PROGRAM, inputs={}, seed=7)
    session.run(PROGRAM, inputs={}, seed=7)
    after_two = session.verifier.stats.checks
    session.run(PROGRAM, inputs={}, seed=7)
    # the third run hits only already-verified interned items
    assert session.verifier.stats.checks == after_two


def test_oracle_disabled_by_default():
    session = LimaSession(LimaConfig.full(), seed=7)
    assert session.verifier is None
    # and never created without a cache to verify
    session = LimaSession(LimaConfig.base().with_(verify_reuse=0.0))
    assert session.verifier is None


def test_env_variable_arms_the_oracle(monkeypatch):
    monkeypatch.setenv("LIMA_VERIFY_REUSE", "1.0")
    session = LimaSession(LimaConfig.full(), seed=7)
    assert session.verifier is not None
    session.run(PROGRAM, inputs={}, seed=7)
    assert session.verifier.stats.checks > 0
    # the env override never touches reuse-free configurations
    assert LimaSession(LimaConfig.base()).verifier is None


def test_env_poisoning_raises_too(monkeypatch, poisoned_cache):
    monkeypatch.setenv("LIMA_VERIFY_REUSE", "1.0")
    session = LimaSession(LimaConfig.full(), seed=7)
    with pytest.raises(ReuseVerificationError):
        session.run(PROGRAM, inputs={}, seed=7)


def test_oracle_rebinds_inputs_by_content_token():
    """Another binding of the name ``X`` (as a concurrent service session
    makes) must not turn a correct value into a false mismatch: the
    oracle binds input leaves by their content token, as recovery does."""
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    session = LimaSession(LimaConfig.hybrid().with_(verify_reuse=1.0))
    r = session.run("S = t(X) %*% X;", inputs={"X": A})
    other = wrap(B)
    session.resilience.register_input(
        "X", other, token=input_leaf_item("X", other).data)
    session.verifier.check("full", r.lineage("S"), r.value("S"))
    assert session.verifier.stats.checks == 1
    assert session.verifier.stats.mismatches == 0
    # recovery binds the same way
    recovered = session.resilience.recompute_item(r.lineage("S"))
    np.testing.assert_array_equal(recovered.data, r.get("S"))


def test_rate_sampling_skips():
    class _NoResilience:
        @staticmethod
        def bound_inputs(item):
            return {}

    config = LimaConfig.full().with_(verify_reuse=0.25)
    verifier = ReuseVerifier(config, _NoResilience(), seed=3)
    value = MatrixValue(np.ones((2, 2)))
    for i in range(200):
        # fcall keys are unreplayable, so sampled-in hits count as
        # unreplayable and sampled-out hits as skipped — never raised
        verifier.check("full", LineageItem("fcall", (), data=f"f:{i}"),
                       value)
    stats = verifier.stats
    assert stats.skipped > 0
    assert stats.unreplayable > 0
    assert stats.unreplayable + stats.skipped == 200
    # roughly a quarter of the hits were sampled in
    assert 20 <= stats.unreplayable <= 90


def test_unreplayable_traces_are_counted_not_raised():
    class _NoResilience:
        @staticmethod
        def bound_inputs(item):
            return {}

    config = LimaConfig.full().with_(verify_reuse=1.0)
    verifier = ReuseVerifier(config, _NoResilience(), seed=0)
    # an fcall key has no reconstructible trace; with no fine-grained
    # root the recompute fails and the hit is skipped, not raised
    item = LineageItem("fcall", (), data="f:1")
    verifier.check("multilevel", item, MatrixValue(np.ones((2, 2))))
    assert verifier.stats.unreplayable == 1
    assert verifier.stats.mismatches == 0


def test_config_validates_rate():
    with pytest.raises(ValueError):
        LimaConfig.full().with_(verify_reuse=1.5).validate()
    with pytest.raises(ValueError):
        LimaConfig.full().with_(verify_reuse=-0.1).validate()


def test_cli_flag_defaults_to_full_rate():
    args = build_parser().parse_args(["run", "s.dml", "--verify-reuse"])
    assert args.verify_reuse == 1.0
    args = build_parser().parse_args(
        ["run", "s.dml", "--verify-reuse", "0.5"])
    assert args.verify_reuse == 0.5
    args = build_parser().parse_args(["run", "s.dml"])
    assert args.verify_reuse is None
