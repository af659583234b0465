"""sha256 digests of every output of the heatinv CLI on a fixed set of configs.

    PYTHONPATH=src python tools/output_digests.py OUT_DIR

For each config in CONFIGS this runs `simulate`, `invert` and `study`
through heatinv.cli.main, writing under OUT_DIR/<config>, and prints one
`<config>/<output> <sha256>` line per output: the nine files the three
commands write, the report `invert` prints and what `study` prints to
stderr.  heatinv is imported from the path, so pointing PYTHONPATH at
another checkout's src digests that checkout.  Digests of two checkouts
taken this way and compared with `diff` show which outputs a change moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from heatinv.cli import main

#: the files simulate, invert and study write
FILES = ("observations.csv", "observations.json", "reconstruction.json",
         "reconstruction.csv", "report.txt", "study.csv", "study.json",
         "error_vs_level.dat", "error_vs_mode.dat")

_FOURMODE = {"preset": "fourmode", "order": 8, "t_final": 4.0, "dt": 2e-3, "trials": 2}

#: each config exercises one path of the pipeline; all are quick to run
CONFIGS = {
    "cli-roundtrip": {"preset": "generic", "order": 16, "t_final": 6.0, "dt": 1e-3,
                      "y": 1.0, "noise_kind": "relative", "noise_level": 1e-8, "seed": 1,
                      "depth": 2, "levels": [0.0, 1e-6], "trials": 2},
    "generic-long-model": {"preset": "generic", "dt": 1e-4, "depth": 4,
                           "schedule_method": "model", "levels": [0.0, 1e-6], "trials": 1},
    "fourmode-balance": {**_FOURMODE, "schedule_method": "balance", "y": 1.3,
                         "noise_kind": "absolute", "noise_level": 1e-4, "seed": 3},
    "fourmode-ladder": {**_FOURMODE, "dt": 2e-4, "schedule_method": "ladder", "window": 5},
    "fourmode-model-huge": {**_FOURMODE, "schedule_method": "model", "y": 1.3,
                            "levels": [0.0, 1e-4, 1e300]},
    # the clean record and 28 noisy ones in chunks of 10, 10 and 9: the second
    # mixes 5 at 1e-6 with 5 at 1e308, whose draws overflow, so it falls back
    # to lone records (5 pass, 5 fail)
    "fourmode-ladder-chunks": {**_FOURMODE, "schedule_method": "ladder", "window": 1,
                               "levels": [0.0, 1e-6, 1e308], "trials": 14},
    "steady": {"preset": "steady", "order": 8, "t_final": 2.0, "y": 2.0, "trials": 2},
    "generic-lsq-smooth": {"preset": "generic", "order": 8, "t_final": 3.0,
                           "peel_method": "lsq", "ridge": 1e-10, "smooth_window": 21,
                           "noise_kind": "relative", "noise_level": 1e-5, "seed": 7,
                           "levels": [0.0, 1e-5], "trials": 2},
    "schedule-times": {"preset": "generic", "order": 8, "t_final": 4.0, "depth": 2,
                       "schedule_times": [3.0, 1.5], "trials": 2},
    # h = v = 0: every JSON series value is below 1e-4, some of them -0.0
    "zero-forcing": {"preset": None, "g_amplitudes": [1.0, 0.5, 0.25], "order": 8,
                     "t_final": 2.0, "depth": 2},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(out_dir: Path, configs: dict) -> list[str]:
    """Run the three commands on each config under out_dir/<name> and return
    the `<name>/<output> <sha256>` lines; a command that fails raises."""
    lines = []
    for name, config in configs.items():
        out = out_dir / name
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(config, sort_keys=True))
        args = ["--config", str(out / "config.json"), "--out", str(out)]
        streams = {}
        for command in (["simulate"], ["invert", str(out / "observations.csv")], ["study"]):
            stdout, stderr = StringIO(), StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(command + args)
            if code != 0:
                raise RuntimeError(f"{name}: {command[0]} exited {code}: {stderr.getvalue()}")
            streams[command[0]] = (stdout.getvalue(), stderr.getvalue())
        digests = {f: _sha256((out / f).read_bytes()) for f in FILES}
        digests["invert.stdout"] = _sha256(streams["invert"][0].encode())
        digests["study.stderr"] = _sha256(streams["study"][1].encode())
        lines += [f"{name}/{output} {digest}" for output, digest in digests.items()]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT_DIR")
    print("\n".join(digest_lines(Path(sys.argv[1]), CONFIGS)))
