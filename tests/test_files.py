import os
import subprocess
import sys
from pathlib import Path

import pytest

from jazzgen.files import atomic_open, write_all

ROOT = Path(__file__).resolve().parents[1]

# Each writer gets a payload well past the 1 KiB file-size limit below.
WRITERS = {
    "atomic_open": "from jazzgen.files import atomic_open\n"
                   "def write(path):\n"
                   "    with atomic_open(path, 'wb') as handle:\n"
                   "        handle.write(b'n' * 65536)\n",
    "write_all": "from jazzgen.files import write_all\n"
                 "write = lambda path: write_all({path + '.small': b's', path: b'n' * 65536})\n",
    "write_json": "from pathlib import Path\n"
                  "from jazzgen.cli import write_json\n"
                  "write = lambda path: write_json(Path(path), list(range(20000)))\n",
    "save_transition_table": "from jazzgen.markov import build_transition_table, save_transition_table\n"
                             "table = build_transition_table([[f'C4_{i}.0' for i in range(1, 300)]], 1)\n"
                             "write = lambda path: save_transition_table(table, path)\n",
    "save_checkpoint": "from jazzgen.rnn import Checkpoint, RnnConfig, init_tensors, save_checkpoint\n"
                       "from jazzgen.tokenizer import Vocabulary\n"
                       "config = RnnConfig(window=2, hidden_units=8, dense_units=8, epochs=1, batch_size=2)\n"
                       "vocab = Vocabulary(tuple(sorted(f'C4_{i}.0' for i in range(1, 51))))\n"
                       "ckpt = Checkpoint(init_tensors(config, len(vocab), 0), vocab, config, best_loss=1.0, epoch=0)\n"
                       "write = lambda path: save_checkpoint(ckpt, path)\n",
}

# The file-size limit makes the kernel refuse the write once 1 KiB is on disk:
# a real failure part way through, not a mocked one.
FAIL_PART_WAY = """
import errno, resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    write(sys.argv[1])
except OSError as err:
    sys.exit(3 if err.errno == errno.EFBIG else 4)
"""


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_write_failing_part_way_keeps_earlier_file_and_no_temp(tmp_path, writer):
    target = tmp_path / "artifact"
    target.write_bytes(b"earlier complete file\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", WRITERS[writer] + FAIL_PART_WAY, str(target)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 3, result.stderr
    assert target.read_bytes() == b"earlier complete file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_atomic_open_replaces_contents_and_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact"
    target.write_bytes(b"old")
    with atomic_open(target) as handle:
        handle.write("new contents")
    assert target.read_bytes() == b"new contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_atomic_open_creates_file_with_umask_mode(tmp_path):
    target = tmp_path / "artifact"
    with atomic_open(target, "wb") as handle:
        handle.write(b"x")
    plain = tmp_path / "plain"
    plain.write_bytes(b"x")
    assert target.stat().st_mode == plain.stat().st_mode


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
