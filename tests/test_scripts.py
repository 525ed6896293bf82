import os
import subprocess
import sys
from pathlib import Path

from jazzgen.report import read_comparison_csv

ROOT = Path(__file__).resolve().parents[1]


def run_pipeline(*args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_run_pipeline_writes_report_and_reruns_byte_identical(tmp_path):
    out = tmp_path / "out"
    snapshots = []
    for _ in range(2):
        result = run_pipeline("--work", tmp_path, "--epochs", "1", "--hidden", "8")
        assert result.returncode == 0, result.stderr
        snapshots.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    rows = read_comparison_csv((out / "report" / "comparison.csv").read_text())
    assert [row.seed_id for row in rows] == sorted(p.stem for p in (tmp_path / "seeds").glob("*.mid"))
    assert snapshots[0] == snapshots[1]


def test_run_pipeline_bad_order_exits_2_with_one_line(tmp_path):
    result = run_pipeline("--work", tmp_path, "--order", "0")
    assert result.returncode == 2
    assert result.stderr.splitlines() == ["Error: markov_order must be >= 1, got 0"]
    assert not any(tmp_path.iterdir())
