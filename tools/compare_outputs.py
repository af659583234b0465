"""The output digests of another heatinv source tree against this checkout's.

    python tools/compare_outputs.py PARENT_SRC OUT_DIR

This runs tools/output_digests.py on its configs twice, each time in its own
subprocess with PYTHONPATH set to one source tree: PARENT_SRC (say the src of
a `git worktree` of the parent commit), written under OUT_DIR/parent, and
this checkout's src, written under OUT_DIR/change.  It prints only the
digest lines that differ, `- ` for PARENT_SRC and `+ ` for this checkout,
and exits 1 when any line differs, 0 when none does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent

#: this checkout's source tree
SRC = TOOLS.parent / "src"

#: run in each subprocess: argv is (digests script, src, out dir, configs as
#: JSON, or null for the script's CONFIGS)
_RUN = """
import json, runpy, sys
from pathlib import Path
script, src, out, configs = sys.argv[1:]
digests = runpy.run_path(script)
import heatinv
if Path(heatinv.__file__).resolve().parents[1] != Path(src).resolve():
    raise SystemExit(f"imported heatinv from {heatinv.__file__}, not from {src}")
print("\\n".join(digests["digest_lines"](Path(out), json.loads(configs) or digests["CONFIGS"])))
"""


def digests_of(src: Path, out_dir: Path, configs: dict | None = None) -> list[str]:
    """output_digests' lines for the heatinv under src, in a subprocess."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    args = [str(TOOLS / "output_digests.py"), str(src), str(out_dir), json.dumps(configs)]
    proc = subprocess.run([sys.executable, "-c", _RUN, *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"digests of {src} failed:\n{proc.stderr}")
    return proc.stdout.splitlines()


def main(argv: list[str], configs: dict | None = None) -> int:
    """Print the differing lines of argv = [PARENT_SRC, OUT_DIR]; 1 if any."""
    if len(argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} PARENT_SRC OUT_DIR")
    parent_src, out_dir = map(Path, argv)
    old = digests_of(parent_src, out_dir / "parent", configs)
    new = digests_of(SRC, out_dir / "change", configs)
    differ = [f"- {line}" for line in old if line not in new]
    differ += [f"+ {line}" for line in new if line not in old]
    if differ:
        print("\n".join(differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
