"""Run ``tests/runtime_cases.py`` on the synth corpus it was written for."""

import os
import subprocess
import sys
from pathlib import Path

import leadlag
from leadlag.corpus import write_corpus


def test_runtime_cases_pass(tmp_path):
    # the corpus of `leadlag synth --out c --trusts 8 --days 240 --indicators 2 --waves 2`
    write_corpus(tmp_path / "c", n_trusts=8, n_days=240, n_indicators=2, n_waves=2, seed=0)
    src = str(Path(leadlag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("runtime_cases.py")),
                           sys.executable, "-m", "leadlag.cli"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
