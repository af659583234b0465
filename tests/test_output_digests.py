"""tools/output_digests.py: it runs, and a rerun elsewhere prints the same digests."""

import importlib.util
from pathlib import Path

from heatinv.io import ExperimentConfig

_SPEC = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parents[1] / "tools" / "output_digests.py")
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_one_small_config_digests_the_same_twice(tmp_path):
    config = {"preset": "generic", "order": 8, "t_final": 1.0, "dt": 1e-2, "depth": 2,
              "levels": [0.0, 1e-6], "trials": 2}
    first = digests.digest_lines(tmp_path / "a", {"small": config})
    outputs = [*digests.FILES, "invert.stdout", "study.stderr"]
    assert [line.split()[0] for line in first] == [f"small/{name}" for name in outputs]
    assert all(len(line.split()[1]) == 64 for line in first)
    assert digests.digest_lines(tmp_path / "b", {"small": config}) == first


def test_committed_configs_load():
    for config in digests.CONFIGS.values():
        ExperimentConfig.from_dict(config)
