import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOADED_IN_CHILD = "import sys, jazzgen.synthetic; print(sorted({'numpy', 'jazzgen.rnn'} & sys.modules.keys()))"


def test_the_corpus_generator_imports_without_numpy():
    # the package entry imports nothing, so a module loads only what it needs
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", LOADED_IN_CHILD],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
