"""``setup.py`` installs the ``repro`` package from ``src/``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_names_the_package():
    completed = subprocess.run(
        [sys.executable, "setup.py", "--name"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.split()[-1] == "repro"


def test_every_module_directory_is_a_package():
    """``find_packages`` only ships directories with an ``__init__.py``."""
    package_root = REPO_ROOT / "src" / "repro"
    missing = sorted(
        str(path.parent.relative_to(package_root.parent))
        for path in package_root.rglob("*.py")
        if not (path.parent / "__init__.py").is_file()
    )
    assert missing == []
