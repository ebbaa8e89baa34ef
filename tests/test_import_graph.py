"""Import graph of a serving process.

A serving run imports only the code that serves: package ``__init__``s
resolve their exports lazily (``_LAZY`` plus a module ``__getattr__``),
so importing ``repro.hw.serving`` or ``repro.kvstore.tiers`` does not
compile the accelerator simulator, the LM trainer or the fault injector
beside them, and the tier store dedupes positions without
``np.unique`` (whose first call imports ``numpy.ma``).  The run happens
in a fresh interpreter, since this test process has imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules no serving run may load
NOT_SERVING = (
    "repro.model.trainer",
    "repro.model.transformer",
    "repro.hw.accelerator",
    "repro.hw.pe_lane",
    "repro.hw.energy",
    "repro.cluster.faults",
    "repro.obs.schema",
    "repro.core.attention",
    "numpy.ma",
)

SERVE = """
import json, sys
import numpy as np
from repro.cluster.router import ClusterRouter
from repro.core.config import TokenPickerConfig
from repro.kvstore.tiers import TierConfig
from repro.serving.engine import ServingEngine
from repro.serving.request import synthetic_request
from repro.workloads.traces import long_context_trace

config = TokenPickerConfig(threshold=2e-3)
rng = np.random.default_rng(0)
engine = ServingEngine(config, max_batch_size=2, capacity_tokens=256)
for _ in range(2):
    engine.submit(synthetic_request(rng, 2, 24, 16, 3))
engine.run_until_drained()

router = ClusterRouter(
    2, config, shards=2, kv_tiering=TierConfig(), prefix_cache=True,
    max_batch_size=2, capacity_tokens=512,
)
for _, request in long_context_trace(
    rng, 4, n_heads=4, head_dim=16, prompt_tokens=96, max_new_tokens=12,
):
    router.submit(request)
router.run_until_drained()
print(json.dumps({
    "demotions": sum(r.tiers.demotions_total for r in router.replicas),
    "loaded": sorted(m for m in json.loads(sys.argv[1]) if m in sys.modules),
}))
"""


def _packages():
    """Every package under ``src/repro``, by module name."""
    return sorted(
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").rglob("__init__.py")
    )


def test_serving_run_loads_no_simulator_trainer_or_numpy_ma():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SERVE, json.dumps(NOT_SERVING)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["demotions"] > 0  # the run reached the tier store
    assert outcome["loaded"] == []


def test_every_exported_name_resolves():
    for name in _packages():
        package = importlib.import_module(name)
        lazy, exports = getattr(package, "_LAZY", {}), getattr(package, "__all__", ())
        assert set(lazy) <= set(exports), name
        for export in exports:
            value = getattr(package, export)
            if export in lazy:
                owner = importlib.import_module(lazy[export])
                assert value is getattr(owner, export), f"{name}.{export}"
        assert not hasattr(package, "not_an_export"), name
