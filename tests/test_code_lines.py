"""Smoke test of ``scripts/code_lines.py``, the package's code-line count."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment


# a comment line
def f(a,
      b):
    """Function docstring."""
    return os.path.join(a,
                        b)
'''


def run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=120)


def test_counts_lines_without_comments_and_docstrings(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "empty.py").write_text('"""Only a docstring."""\n')
    done = run("--src", str(tmp_path))
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert rows == [["sample.py", "5"], ["sub/empty.py", "0"], ["total", "5"]]


def test_default_package_total_is_the_sum_of_its_files():
    done = run()
    assert done.returncode == 0, done.stderr
    *files, total = [line.split() for line in done.stdout.splitlines()]
    assert "config.py" in {name for name, _ in files}
    assert total[0] == "total" and int(total[1]) == sum(int(n) for _, n in files)


def test_a_missing_directory_is_a_usage_error(tmp_path):
    done = run("--src", str(tmp_path / "absent"))
    assert done.returncode == 2 and "not a directory" in done.stderr
