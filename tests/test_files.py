import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from jazzgen.cli import main
from jazzgen.files import write_all
from jazzgen.synthetic import write_corpus, write_seeds

ROOT = Path(__file__).resolve().parents[1]

# The file-size limit makes the kernel refuse a write once 1 KiB is on disk:
# a real failure part way through, not a mocked one. The payload is well past it.
FAIL_PART_WAY = """
import errno, resource, signal, sys
from jazzgen.files import write_all
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write_all({sys.argv[1] + '.small': b's', sys.argv[1]: b'n' * 65536})
except OSError as err:
    sys.exit(3 if err.errno == errno.EFBIG else 4)
"""

# the same limit around a whole jazzgen command, after its imports
RUN_UNDER_LIMIT = """
import resource, signal, sys
from jazzgen.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
main(sys.argv[1:])
"""


def run_child(script, *args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_write_failing_part_way_keeps_earlier_file_and_no_temp(tmp_path):
    target = tmp_path / "artifact"
    target.write_bytes(b"earlier complete file\n")
    result = run_child(FAIL_PART_WAY, target)
    assert result.returncode == 3, result.stderr
    assert target.read_bytes() == b"earlier complete file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_train_failing_part_way_keeps_earlier_models_and_no_temp(tmp_path):
    write_corpus(tmp_path / "corpus", seed=1, n_files=3)
    write_seeds(tmp_path / "seeds", seed=1, n_files=2)
    out = tmp_path / "out"
    args = ["--corpus", tmp_path / "corpus", "--seeds", tmp_path / "seeds", "--out", out,
            "--hidden", "8", "--epochs", "1", "--batch", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the size-1-batch warning is not under test here
        for command in ("ingest", "train"):
            result = CliRunner().invoke(main, [command, *map(str, args), "--order", "2"])
            assert result.exit_code == 0, result.output
    before = files_under(out)
    result = run_child(RUN_UNDER_LIMIT, "train", *args, "--order", "3")
    assert result.returncode == 1, result.stderr
    assert result.stderr.splitlines()[-1] == f"Error: cannot write {out / 'models' / 'markov.json'}: File too large"
    assert files_under(out) == before


def test_write_all_creates_file_with_umask_mode(tmp_path):
    write_all({tmp_path / "artifact": b"x"})
    plain = tmp_path / "plain"
    plain.write_bytes(b"x")
    assert (tmp_path / "artifact").stat().st_mode == plain.stat().st_mode


def test_write_all_writes_every_file_and_leaves_no_temp(tmp_path):
    (tmp_path / "a").write_bytes(b"old")
    write_all({tmp_path / "a": b"new a", tmp_path / "b": b"new b"})
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {"a": b"new a", "b": b"new b"}


def test_write_all_error_names_the_file_and_writes_none(tmp_path):
    (tmp_path / "a").write_bytes(b"old")
    unwritable = tmp_path / "missing" / "b"
    with pytest.raises(FileNotFoundError) as err:
        write_all({tmp_path / "a": b"new a", unwritable: b"new b"})
    assert err.value.filename == str(unwritable)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {"a": b"old"}


def test_write_all_failed_rename_names_the_target_and_removes_the_rest(tmp_path):
    (tmp_path / "a").write_bytes(b"old a")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "inside").write_bytes(b"kept")
    (tmp_path / "c").write_bytes(b"old c")
    with pytest.raises(IsADirectoryError) as err:
        write_all({tmp_path / "a": b"new a", tmp_path / "b": b"new b", tmp_path / "c": b"new c"})
    assert err.value.filename == str(tmp_path / "b")
    # a was renamed before the failure and stays renamed; c was not reached
    assert files_under(tmp_path) == {
        Path("a"): b"new a", Path("b/inside"): b"kept", Path("c"): b"old c",
    }
