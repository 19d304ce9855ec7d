"""End-to-end equivalence: every configuration computes the same values.

The central correctness property of lineage-based reuse (Section 4): full,
partial, and multi-level reuse, deduplication, fusion, compiler assistance,
and every eviction policy are pure optimizations — outputs must be
bit-identical to plain execution (given fixed seeds).
"""

import numpy as np
import pytest

from repro import LimaConfig, LimaSession

CONFIGS = {
    "lt": LimaConfig.lt(),
    "ltp": LimaConfig.ltp(),
    "ltd": LimaConfig.ltd(),
    "full": LimaConfig.full(),
    "multilevel": LimaConfig.multilevel(),
    "hybrid": LimaConfig.hybrid(),
    "ca": LimaConfig.ca(),
    "fusion": LimaConfig.hybrid().with_(fusion=True),
    "lru": LimaConfig.hybrid().with_(eviction_policy="lru"),
    "dagheight": LimaConfig.hybrid().with_(eviction_policy="dagheight"),
    "tiny-cache": LimaConfig.hybrid().with_(memory_budget=64 * 1024),
}

SCRIPTS = {
    "lm-sweep": """
        out = matrix(0, ncol(X), 3);
        for (i in 1:3) {
          B = lmDS(X, y, 0, 10 ^ (-1 * i), FALSE);
          out[, i] = B;
        }
    """,
    "pca-ks": """
        [r1, e1] = pca(X, 2);
        [r2, e2] = pca(X, 4);
        out = cbind(colSums(r1), colSums(r2));
    """,
    "steplm": "out = stepLm(X, y, 3, 0.001);",
    "cv": "out = cvlm(X, y, 4, 0, 0.01);",
    "branchy-loop": """
        acc = X;
        for (i in 1:8) {
          if (i %% 3 == 0) acc = acc * 0.5;
          else acc = acc + i;
        }
        out = colSums(acc);
    """,
    "seeded-rand": """
        R = rand(rows=nrow(X), cols=2, seed=11);
        out = t(cbind(X, R)) %*% cbind(X, R);
    """,
    "while-iterative": """
        B = lmCG(X, y, 1, 0.01, 0.000001, 20, FALSE);
        out = B;
    """,
}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((80, 6))
    y = X @ rng.standard_normal((6, 1)) + 0.1 * rng.standard_normal((80, 1))
    return {"X": X, "y": y}


@pytest.fixture(scope="module")
def references(data):
    refs = {}
    for sname, script in SCRIPTS.items():
        sess = LimaSession(LimaConfig.base())
        refs[sname] = sess.run(script, inputs=data, seed=99).get("out")
    return refs


@pytest.mark.parametrize("cname", sorted(CONFIGS))
@pytest.mark.parametrize("sname", sorted(SCRIPTS))
def test_config_matches_base(cname, sname, data, references):
    sess = LimaSession(CONFIGS[cname])
    result = sess.run(SCRIPTS[sname], inputs=data, seed=99)
    np.testing.assert_allclose(result.get("out"), references[sname],
                               rtol=1e-9, atol=1e-9,
                               err_msg=f"{cname} diverged on {sname}")


def test_repeated_runs_reuse_and_match(data):
    """Running the same pipeline repeatedly must stay correct as the cache
    fills, evicts, and hits across invocations."""
    sess = LimaSession(LimaConfig.hybrid().with_(memory_budget=128 * 1024))
    results = [sess.run(SCRIPTS["lm-sweep"], inputs=data, seed=99).get("out")
               for _ in range(4)]
    for later in results[1:]:
        np.testing.assert_array_equal(results[0], later)
    assert sess.stats.hits > 0
