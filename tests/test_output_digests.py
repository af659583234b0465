"""tools/output_digests.py: it runs, and a rerun elsewhere prints the same
digests; tools/compare_outputs.py prints the digests two source trees differ in."""

import shutil

from script_modules import ROOT, load

from heatinv.io import ExperimentConfig

TOOLS = ROOT / "tools"

digests = load(TOOLS / "output_digests.py", "output_digests")
compare = load(TOOLS / "compare_outputs.py", "compare_outputs")

SMALL = {"preset": "generic", "order": 8, "t_final": 1.0, "dt": 1e-2, "depth": 2,
         "levels": [0.0, 1e-6], "trials": 2}


def test_one_small_config_digests_the_same_twice(tmp_path):
    config = SMALL
    first = digests.digest_lines(tmp_path / "a", {"small": config})
    outputs = [*digests.FILES, "invert.stdout", "study.stderr"]
    assert [line.split()[0] for line in first] == [f"small/{name}" for name in outputs]
    assert all(len(line.split()[1]) == 64 for line in first)
    assert digests.digest_lines(tmp_path / "b", {"small": config}) == first


def test_committed_configs_load():
    for config in digests.CONFIGS.values():
        ExperimentConfig.from_dict(config)


def test_compare_outputs_of_the_same_tree_prints_nothing(tmp_path, capsys):
    assert compare.main([str(compare.SRC), str(tmp_path)], {"small": SMALL}) == 0
    assert capsys.readouterr().out == ""


def test_compare_outputs_prints_the_lines_that_differ(tmp_path, capsys):
    # a tree whose generic preset has another source h: its records move
    other = tmp_path / "src"
    shutil.copytree(compare.SRC / "heatinv", other / "heatinv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    presets = other / "heatinv" / "presets.py"
    text = presets.read_text()
    assert text.count("1.0 + np.cos") == 2
    presets.write_text(text.replace("1.0 + np.cos", "2.0 + np.cos", 1))
    assert compare.main([str(other), str(tmp_path / "out")], {"small": SMALL}) == 1
    lines = capsys.readouterr().out.splitlines()
    changed = {line.split()[1] for line in lines}
    assert [line[:2] for line in lines] == ["- "] * len(changed) + ["+ "] * len(changed)
    assert {"small/observations.csv", "small/reconstruction.json", "small/study.csv"} <= changed
